package graph

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"math"
	"testing"

	"numabfs/internal/collective"
	"numabfs/internal/machine"
	"numabfs/internal/mpi"
	"numabfs/internal/rmat"
)

// testWorld returns a 2-node x 4-socket world, one rank per socket.
func testWorld() *mpi.World {
	cfg := machine.TableI()
	cfg.Nodes = 2
	cfg.SocketsPerNode = 4
	cfg.WeakNode = -1
	return mpi.NewWorld(cfg, machine.PlacementFor(cfg, machine.PPN8Bind))
}

func hashInts(h hash.Hash64, xs ...int64) {
	var buf [8]byte
	for _, x := range xs {
		binary.LittleEndian.PutUint64(buf[:], uint64(x))
		h.Write(buf[:])
	}
}

// TestBuildDistributedPinned locks kernel 1's output and its virtual
// cost: an FNV-1a fingerprint of every rank's CSR, and every rank's
// clock after the build. TestBuildDistributedMatchesGlobal cannot catch
// a changed edge stream (both of its builds share the generator), and
// the cost model must not move when the host code does.
func TestBuildDistributedPinned(t *testing.T) {
	cases := []struct {
		dedup            bool
		wantCSR, wantClk uint64
	}{
		{true, 0x2ecc507248258085, 0x5b3fe1b58d847fe0},
		{false, 0xce2f0172b6088bae, 0x5b3fe1b58d847fe0},
	}
	params := rmat.Graph500(12)
	for _, c := range cases {
		w := testWorld()
		g := collective.WorldGroup(w)
		part := NewPartition(params.NumVertices(), w.NumProcs())
		locals := make([]*CSR, w.NumProcs())
		w.Run(func(p *mpi.Proc) {
			locals[p.Rank()] = BuildDistributed(p, g, part, params, c.dedup)
		})
		csrH, clockH := fnv.New64a(), fnv.New64a()
		for rank, l := range locals {
			hashInts(csrH, l.Lo, l.Hi)
			hashInts(csrH, l.RowPtr...)
			hashInts(csrH, l.Col...)
			hashInts(clockH, int64(math.Float64bits(w.Proc(rank).Clock())))
		}
		if got := csrH.Sum64(); got != c.wantCSR {
			t.Errorf("dedup %v: CSR fingerprint %#x, want %#x", c.dedup, got, c.wantCSR)
		}
		if got := clockH.Sum64(); got != c.wantClk {
			t.Errorf("dedup %v: clock fingerprint %#x (max clock %v ns), want %#x", c.dedup, got, w.MaxClock(), c.wantClk)
		}
	}
}
