package bfs

import (
	"encoding/binary"
	"hash/fnv"
	"runtime"
	"testing"

	"numabfs/internal/machine"
	"numabfs/internal/obs"
	"numabfs/internal/rmat"
	"numabfs/internal/trace"
)

// TestDeterministicAcrossHostParallelism: virtual time must not depend
// on how the host schedules the rank goroutines — the core guarantee of
// the execution-driven simulator. Run the same job under different
// GOMAXPROCS settings and require bit-identical results.
func TestDeterministicAcrossHostParallelism(t *testing.T) {
	const scale = 12
	params := rmat.Graph500(scale)
	run := func() (float64, float64, int64) {
		r, err := NewRunner(testConfig(scale, 2, 4), machine.PPN8Bind, params, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		r.Setup()
		root := params.Roots(1, r.HasEdgeGlobal)[0]
		res := r.RunRoot(root)
		return res.TimeNs, res.Breakdown.Total(), res.TraversedEdges
	}

	prev := runtime.GOMAXPROCS(1)
	t1, b1, e1 := run()
	runtime.GOMAXPROCS(4)
	t4, b4, e4 := run()
	runtime.GOMAXPROCS(prev)

	if t1 != t4 || b1 != b4 || e1 != e4 {
		t.Fatalf("host parallelism leaked into results: GOMAXPROCS=1 -> (%g, %g, %d); GOMAXPROCS=4 -> (%g, %g, %d)",
			t1, b1, e1, t4, b4, e4)
	}
}

// TestDeterministicWithTracing extends the guarantee to observability:
// recording must neither perturb virtual time nor itself depend on host
// scheduling — the exported trace bytes are part of the deterministic
// output.
func TestDeterministicWithTracing(t *testing.T) {
	const scale = 12
	params := rmat.Graph500(scale)
	run := func() (float64, float64, []byte) {
		r, err := NewRunner(testConfig(scale, 2, 4), machine.PPN8Bind, params, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		rec := obs.NewRecorder()
		r.AttachObs(rec.NewSession("determinism"))
		r.Setup()
		root := params.Roots(1, r.HasEdgeGlobal)[0]
		res := r.RunRoot(root)
		data, err := rec.ChromeTraceJSON()
		if err != nil {
			t.Fatal(err)
		}
		return res.TimeNs, res.Breakdown.Total(), data
	}

	prev := runtime.GOMAXPROCS(1)
	t1, b1, d1 := run()
	runtime.GOMAXPROCS(4)
	t4, b4, d4 := run()
	runtime.GOMAXPROCS(prev)

	if t1 != t4 || b1 != b4 {
		t.Fatalf("results differ under tracing: (%g, %g) vs (%g, %g)", t1, b1, t4, b4)
	}
	if string(d1) != string(d4) {
		t.Fatal("trace bytes depend on host parallelism")
	}

	// And tracing must not change the numbers relative to an untraced run.
	r, err := NewRunner(testConfig(scale, 2, 4), machine.PPN8Bind, params, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	r.Setup()
	root := params.Roots(1, r.HasEdgeGlobal)[0]
	res := r.RunRoot(root)
	if res.TimeNs != t1 || res.Breakdown.Total() != b1 {
		t.Fatalf("tracing changed results: untraced (%g, %g) vs traced (%g, %g)",
			res.TimeNs, res.Breakdown.Total(), t1, b1)
	}
}

// TestDeterministicAtPaperShape repeats the host-parallelism guarantee
// at the paper's headline shape — 16 nodes × 8 sockets, one rank per
// socket, the parallelized allgather — where 128 rank goroutines race
// through the rendezvous path. The parent trees must match too, not
// only the clocks. Scale 13 is the smallest graph that gives 128 ranks
// the 64 vertices each the engine requires.
func TestDeterministicAtPaperShape(t *testing.T) {
	const scale = 13
	params := rmat.Graph500(scale)
	opts := DefaultOptions()
	opts.Opt = OptParAllgather
	type outcome struct {
		timeNs  float64
		bd      trace.Breakdown
		parents uint64
	}
	run := func() outcome {
		r, err := NewRunner(testConfig(scale, 16, 8), machine.PPN8Bind, params, opts)
		if err != nil {
			t.Fatal(err)
		}
		r.Setup()
		root := params.Roots(1, r.HasEdgeGlobal)[0]
		res := r.RunRoot(root)
		h := fnv.New64a()
		var b [8]byte
		for _, pa := range r.ParentArrays() {
			for _, v := range pa {
				binary.LittleEndian.PutUint64(b[:], uint64(v))
				h.Write(b[:])
			}
		}
		return outcome{res.TimeNs, res.Breakdown, h.Sum64()}
	}

	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	want := run()
	for _, procs := range []int{2, 4} {
		runtime.GOMAXPROCS(procs)
		if got := run(); got != want {
			t.Fatalf("host parallelism leaked into results: GOMAXPROCS=1 -> %+v; GOMAXPROCS=%d -> %+v", want, procs, got)
		}
	}
}
