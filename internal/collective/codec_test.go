package collective

import (
	"testing"

	"numabfs/internal/machine"
	"numabfs/internal/mpi"
	"numabfs/internal/omp"
	"numabfs/internal/wire"
)

// newTestCodec builds a codec with a plausible single-socket team; the
// collectives only need it for cost charging.
func newTestCodec() *wire.Codec {
	return &wire.Codec{
		Team: omp.Team{Cfg: machine.TableI(), Threads: 8, SocketsUsed: 1, BWShare: 1},
		Loc:  machine.Local,
	}
}

// variedWord gives owner pos a density class by position — empty,
// single-bit sparse, dense random-ish, or clustered runs — so one
// allgather exercises every wire format the selector can pick.
func variedWord(pos, i int) uint64 {
	switch pos % 4 {
	case 0:
		return 0
	case 1:
		if i == 0 {
			return 1 << uint(pos%64)
		}
		return 0
	case 2:
		return uint64(pos)<<32 | uint64(i) | 1
	default:
		if i%8 < 4 {
			return ^uint64(0)
		}
		return 0
	}
}

func fillVaried(buf []uint64, l Layout, pos int) {
	seg := l.seg(buf, pos)
	for i := range seg {
		seg[i] = variedWord(pos, i)
	}
}

func checkVaried(t *testing.T, who string, rank int, buf []uint64, l Layout) {
	t.Helper()
	for pos := range l.Counts {
		seg := l.seg(buf, pos)
		for i := range seg {
			if want := variedWord(pos, i); seg[i] != want {
				t.Fatalf("%s: rank %d segment %d word %d = %#x, want %#x",
					who, rank, pos, i, seg[i], want)
				return
			}
		}
	}
}

// wireStats aggregates the per-rank codec stats of one run.
func wireStats(codecs []*wire.Codec) wire.Stats {
	var st wire.Stats
	for _, c := range codecs {
		if c != nil {
			st.Add(c.Stats())
		}
	}
	return st
}

// forEachWire runs body once per wire: "raw" hands every rank a nil
// codec, "comp" a fresh test codec. Each rank must call newCodec for its
// own codec — a codec is never shared between ranks.
func forEachWire(t *testing.T, body func(t *testing.T, newCodec func() *wire.Codec)) {
	t.Run("raw", func(t *testing.T) { body(t, func() *wire.Codec { return nil }) })
	t.Run("comp", func(t *testing.T) { body(t, newTestCodec) })
}

// allPositions returns the group positions 0..n-1.
func allPositions(n int) []int {
	pos := make([]int, n)
	for i := range pos {
		pos[i] = i
	}
	return pos
}

func TestParallelAllgatherInPlace(t *testing.T) {
	forEachWire(t, func(t *testing.T, newCodec func() *wire.Codec) {
		w := testWorld(t, 4, 4)
		nc := NewNodeComm(w)
		const words = 644
		l := EvenLayout(words, w.NumProcs())
		w.Run(func(p *mpi.Proc) {
			shared := p.SharedWords("inq", words)
			fillVaried(shared, l, p.Rank())
			p.NodeBarrier()
			nc.ParallelAllgatherInPlace(p, shared, l, newCodec())
			checkVaried(t, "parallel-inplace", p.Rank(), shared, l)
		})
	})
}

// expectedWire computes the analytic wire volume of a compressed ring
// over a group of n members under layout l: each owner's segment
// encodes to the Choose-predicted size and is forwarded n-1 times.
func expectedWire(l Layout, owners []int, hops int) int64 {
	var total int64
	for _, pos := range owners {
		seg := make([]uint64, l.Counts[pos])
		for i := range seg {
			seg[i] = variedWord(pos, i)
		}
		_, size := wire.Choose(wire.Analyze(seg))
		total += int64(size) * int64(hops)
	}
	return total
}
