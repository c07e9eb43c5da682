package bfs2d

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"numabfs/internal/machine"
	"numabfs/internal/rmat"
)

// TestSetupPinned locks the 2-D kernel 1: an FNV-1a fingerprint of every
// grid rank's adjacency (row pointers and neighbour ids) and SetupNs, on
// a 2x2 grid spanning two nodes. Both were recorded before the build
// moved onto internal/graph's routing and CSR code.
func TestSetupPinned(t *testing.T) {
	const (
		wantCSR     = 0x7cc1c3ecf333eb60
		wantSetupNs = 0x41301aca12f9e970
	)
	r, err := NewRunner(testConfig(12, 2, 2), machine.PPN8Bind, Grid{R: 2, C: 2}, rmat.Graph500(12))
	if err != nil {
		t.Fatal(err)
	}
	r.Setup()
	h := fnv.New64a()
	var buf [8]byte
	put := func(xs []int64) {
		for _, x := range xs {
			binary.LittleEndian.PutUint64(buf[:], uint64(x))
			h.Write(buf[:])
		}
	}
	for _, rs := range r.states {
		put(rs.rowPtr)
		put(rs.col)
	}
	if got := h.Sum64(); got != wantCSR {
		t.Errorf("CSR fingerprint %#x, want %#x", got, uint64(wantCSR))
	}
	if got := math.Float64bits(r.SetupNs); got != wantSetupNs {
		t.Errorf("SetupNs %v (bits %#x), want bits %#x", r.SetupNs, got, uint64(wantSetupNs))
	}
}
