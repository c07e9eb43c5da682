package main

import (
	"fmt"

	"numabfs/internal/bfs"
	"numabfs/internal/bfs2d"
	"numabfs/internal/graph500"
	"numabfs/internal/msbfs"
	"numabfs/internal/simnet"
	"numabfs/internal/trace"
	"numabfs/internal/wire"
)

// opResult is the virtual outcome of one op: one RunRoot on the root
// workloads, one RunBatch on serve-msbfs. Every field is deterministic
// for a given seed.
type opResult struct {
	timeNs       float64
	edges        int64
	levels       int
	bd           trace.Breakdown
	levelStats   []trace.LevelStat
	commBytes    int64
	rawCommBytes int64
	msgs         int64
	interMsgs    int64
	xport        simnet.Xport
	wire         wire.Stats
}

// engine runs a workload's fixed op list through an engine's public
// entry points. run executes op i; validate checks the output trees op i
// left in the engine against the Graph500 rules, and treeHash
// fingerprints them so a repeat of op i can be held to the validated
// trees.
type engine interface {
	ops() int
	layer() string // "bfs", "bfs2d" or "msbfs": the per-layer metric prefix
	run(i int) opResult
	validate(i int) error
	treeHash(i int) uint64
}

// volume reads the op's message counts. Every op resets the network's
// counters when it resets the clocks, so the reading after the op is the
// op's own delta.
func volume(v simnet.Volume, res *opResult) {
	res.msgs = v.IntraMsgs + v.InterMsgs
	res.interMsgs = v.InterMsgs
}

// rootEngine1D serves cluster-1d: one bfs.Runner, one RunRoot per op.
type rootEngine1D struct {
	r     *bfs.Runner
	roots []int64
}

func (e *rootEngine1D) ops() int      { return len(e.roots) }
func (e *rootEngine1D) layer() string { return "bfs" }

func (e *rootEngine1D) run(i int) opResult {
	rr := e.r.RunRoot(e.roots[i])
	res := opResult{
		timeNs: rr.TimeNs, edges: rr.TraversedEdges, levels: rr.Levels,
		bd: rr.Breakdown, levelStats: rr.LevelStats,
		commBytes: rr.CommBytes, rawCommBytes: rr.RawCommBytes,
		xport: rr.Xport, wire: rr.Wire,
	}
	volume(e.r.W.Net().Volume(), &res)
	return res
}

func (e *rootEngine1D) validate(i int) error {
	return graph500.ValidateRun(e.r, e.roots[i])
}

func (e *rootEngine1D) treeHash(int) uint64 { return fingerprint(e.r.ParentArrays()...) }

// rootEngine2D serves grid-2d-lossy: one bfs2d.Runner under a loss plan.
type rootEngine2D struct {
	r     *bfs2d.Runner
	roots []int64
}

func (e *rootEngine2D) ops() int      { return len(e.roots) }
func (e *rootEngine2D) layer() string { return "bfs2d" }

func (e *rootEngine2D) run(i int) opResult {
	rr := e.r.RunRoot(e.roots[i])
	res := opResult{
		timeNs: rr.TimeNs, edges: rr.TraversedEdges, levels: rr.Levels,
		bd: rr.Breakdown, levelStats: rr.LevelStats,
		commBytes: rr.CommBytes, rawCommBytes: rr.RawCommBytes,
		xport: rr.Xport, wire: rr.Wire,
	}
	volume(e.r.W.Net().Volume(), &res)
	return res
}

func (e *rootEngine2D) validate(i int) error {
	return graph500.ValidateRun2D(e.r, e.roots[i])
}

func (e *rootEngine2D) treeHash(int) uint64 { return fingerprint(e.r.ParentArrays()...) }

// batchEngine serves serve-msbfs: each op replays one batch the query
// server formed at some rate of the ladder. The reference rate's batches
// come first in the op list and their lanes are validated against the
// Graph500 rules; every rate offers the same roots, so each lane of a
// later batch must reproduce the validated tree of its root.
type batchEngine struct {
	r       *msbfs.Runner
	batches [][]int64
	// servedNs is each batch's virtual duration inside queryserv.Serve;
	// a replay must reproduce it bit for bit.
	servedNs []float64
	ref      int              // reference-rate batches at the front
	laneHash map[int64]uint64 // root -> fingerprint of its validated tree
}

func (e *batchEngine) ops() int      { return len(e.batches) }
func (e *batchEngine) layer() string { return "msbfs" }

func (e *batchEngine) run(i int) opResult {
	br := e.r.RunBatch(e.batches[i])
	res := opResult{
		timeNs: br.TimeNs, edges: br.TraversedEdges, levels: br.Levels,
		bd: br.Breakdown, levelStats: br.LevelStats,
		commBytes: br.CommBytes, rawCommBytes: br.RawCommBytes,
		xport: br.Xport, wire: br.Wire,
	}
	volume(e.r.W.Net().Volume(), &res)
	return res
}

func (e *batchEngine) lane(l int) uint64 { return fingerprint(e.r.LaneParents(l)) }

func (e *batchEngine) validate(i int) error {
	if i < e.ref {
		if err := graph500.ValidateBatch(e.r, e.batches[i]); err != nil {
			return err
		}
		for l, root := range e.batches[i] {
			e.laneHash[root] = e.lane(l)
		}
		return nil
	}
	for l, root := range e.batches[i] {
		want, ok := e.laneHash[root]
		if !ok {
			return fmt.Errorf("root %d has no validated tree", root)
		}
		if e.lane(l) != want {
			return fmt.Errorf("lane %d (root %d) differs from its validated tree", l, root)
		}
	}
	return nil
}

func (e *batchEngine) treeHash(i int) uint64 {
	lanes := make([]int64, len(e.batches[i]))
	for l := range lanes {
		lanes[l] = int64(e.lane(l))
	}
	return fingerprint(lanes)
}

// checkServed compares a replayed batch against the server's run of it.
func (e *batchEngine) checkServed(i int, res opResult) error {
	if res.timeNs != e.servedNs[i] {
		return fmt.Errorf("batch %d replayed in %v ns, served in %v ns", i, res.timeNs, e.servedNs[i])
	}
	return nil
}

// fingerprint is FNV-1a over 64-bit words: a cheap fingerprint of parent
// trees, used to prove a repeated op reproduced an already validated tree.
func fingerprint(arrays ...[]int64) uint64 {
	s := uint64(14695981039346656037)
	for _, xs := range arrays {
		for _, x := range xs {
			s ^= uint64(x)
			s *= 1099511628211
		}
	}
	return s
}
