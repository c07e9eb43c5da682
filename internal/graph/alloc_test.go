package graph

import (
	"runtime"
	"testing"

	"numabfs/internal/collective"
	"numabfs/internal/mpi"
	"numabfs/internal/rmat"
)

// TestBuildDistributedAllocs bounds kernel 1's heap objects: generation
// must not allocate per edge, and the send buckets must be sized before
// they are filled rather than grown, so the whole build on a 2x4 world
// stays far below one malloc per 64 edges.
func TestBuildDistributedAllocs(t *testing.T) {
	params := rmat.Graph500(12)
	w := testWorld()
	g := collective.WorldGroup(w)
	part := NewPartition(params.NumVertices(), w.NumProcs())
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	w.Run(func(p *mpi.Proc) {
		BuildDistributed(p, g, part, params, true)
	})
	runtime.ReadMemStats(&m1)
	mallocs := m1.Mallocs - m0.Mallocs
	limit := uint64(params.NumEdges() / 64)
	t.Logf("%d mallocs for %d edges (limit %d)", mallocs, params.NumEdges(), limit)
	if mallocs >= limit {
		t.Fatalf("BuildDistributed made %d mallocs, want < %d", mallocs, limit)
	}
}
