package collective

// Allocation parity for the reliable transport on the collective hot
// loops: compiling the transport in must not add a single allocation to
// the no-plan path, a tuning-only plan must stay on the identity fast
// path, and even an active loss plan charges its protocol analytically —
// zero extra allocations per collective.

import (
	"testing"

	"numabfs/internal/fault"
	"numabfs/internal/mpi"
)

// allgatherAllocs measures the allocations of one ring allgather across
// the whole world, with world construction and plan injection excluded
// from the measured region. AllocsPerRun pins GOMAXPROCS to 1, so the
// count is stable run to run.
func allgatherAllocs(t *testing.T, plan *fault.Plan) float64 {
	t.Helper()
	const words = 256
	w := testWorld(t, 2, 4)
	if plan != nil {
		if err := w.InjectFaults(*plan); err != nil {
			t.Fatal(err)
		}
	}
	g := WorldGroup(w)
	l := EvenLayout(words, g.Size())
	bufs := make([][]uint64, w.NumProcs())
	for r := range bufs {
		bufs[r] = make([]uint64, words)
	}
	return testing.AllocsPerRun(5, func() {
		w.Run(func(p *mpi.Proc) {
			buf := bufs[p.Rank()]
			fillOwn(buf, l, g.Pos(p.Rank()))
			g.AllgatherRing(p, buf, l)
		})
	})
}

func TestTransportAllocParityOnCollectives(t *testing.T) {
	base := allgatherAllocs(t, nil)

	tuned := fault.Plan{RetransmitTimeoutNs: 5e3, RetransmitBackoff: 1.5, RetryBudget: 4}
	if got := allgatherAllocs(t, &tuned); got != base {
		t.Errorf("tuning-only plan changed allocations: %g vs %g per run", got, base)
	}

	lossy := fault.Lossy(3, 0.05)
	if got := allgatherAllocs(t, &lossy); got != base {
		t.Errorf("loss plan changed allocations: %g vs %g per run (protocol must charge analytically)", got, base)
	}
}

// TestRawAlltoallvEmptyVectorsDoNotAllocPerMessage pins that the raw
// alltoallv sends an empty vector as a nil payload: boxing a slice with
// a non-nil backing array into the message's interface allocates, once
// per message. The vectors are empty but non-nil, as a reused send
// buffer truncated to [:0] is.
func TestRawAlltoallvEmptyVectorsDoNotAllocPerMessage(t *testing.T) {
	const rounds = 50
	w := testWorld(t, 2, 4)
	g := WorldGroup(w)
	n := g.Size()
	sends := make([][][]int64, n)
	for r := range sends {
		sends[r] = make([][]int64, n)
		for j := range sends[r] {
			sends[r][j] = make([]int64, 0, 4)
		}
	}
	msgs := rounds * n * (n - 1)
	allocs := testing.AllocsPerRun(1, func() {
		w.Run(func(p *mpi.Proc) {
			for i := 0; i < rounds; i++ {
				g.AlltoallvInt64(p, sends[p.Rank()])
			}
		})
	})
	// Each call allocates its n-entry result slice once per rank, plus a
	// fixed per-run overhead; one allocation per message would be msgs.
	if allocs > float64(msgs)/2 {
		t.Fatalf("%d empty-vector messages allocated %g objects; want well under one per message", msgs, allocs)
	}
}
