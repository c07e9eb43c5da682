package bfs

import (
	"numabfs/internal/machine"
	"numabfs/internal/mpi"
	"numabfs/internal/trace"
)

// defaultOverlapSegments is the pipeline chunk count when
// Options.OverlapSegments is 0: two chunks already let each transfer
// hide the previous chunk's decode and summary rebuild without paying
// much extra per-message latency.
const defaultOverlapSegments = 2

// bitSpan is a granule-aligned base-bit interval [lo, hi) of this rank's
// in_queue_summary share whose rebuild already ran during the pipelined
// allgather.
type bitSpan struct{ lo, hi int64 }

// overlapAllgatherInQueue is the sixth level's in_queue exchange: the
// compressed parallel allgather driven through the segmented pipeline,
// with this rank's summary-share granules rebuilt the moment the
// in_queue chunk containing their words lands — the rebuild that level 5
// pays serially after the collective runs here under the next chunk's
// transfer. Only granules wholly inside chunks this rank itself staged
// or received are touched: the rest of the share covers in_queue words
// other local ranks' subgroup rings write, which are final only after
// the collective's closing node barrier (allgatherSummary rebuilds
// those gaps). The hidden/exposed split lands in the Overlap phase and
// the rank's observability counters.
func (rs *rankState) overlapAllgatherInQueue(p *mpi.Proc) {
	r := rs.r
	wlo := r.wordLayout.Displs[rs.pos]
	ownOut := rs.outQ.Words()[wlo : wlo+r.wordLayout.Counts[rs.pos]]
	segs := r.Opts.OverlapSegments
	if segs == 0 {
		segs = defaultOverlapSegments
	}
	rs.ovDone = rs.ovDone[:0]
	rs.ovRunStart, rs.ovRunEnd = -1, -1
	rs.ovReb = 0
	r.NC.ParallelAllgatherSegmentedC(p, rs.inQ.Words(), ownOut, r.wordLayout,
		segs, rs.inqCodec, rs.ovChunk, &rs.ov)
	rs.bd.Add(trace.Overlap, rs.ov.HiddenNs)
	rs.bd.OverlapExposedNs += rs.ov.ExposedNs
	rs.rec.Overlap(rs.ov.HiddenNs, rs.ov.ExposedNs)
}

// onOverlapChunk is the segmented allgather's per-chunk hook: in_queue
// words [w0, w1) are final. Consecutive chunks of one origin's segment
// arrive back to back, so the hook tracks the current contiguous landed
// run and rebuilds every summary granule that is wholly inside
// run ∩ share and not yet rebuilt. Returns the modelled rebuild cost
// (charged by the collective, inside the phase's comm window — exactly
// where level 5 charges the serial rebuild).
func (rs *rankState) onOverlapChunk(w0, w1 int64) float64 {
	r := rs.r
	g := r.Opts.Granularity
	n := r.Params.NumVertices()
	if w0 != rs.ovRunEnd {
		rs.ovRunStart = w0
		rs.ovReb = 0
	}
	rs.ovRunEnd = w1

	lo := rs.ovRunStart * 64
	hi := w1 * 64
	if hi > n {
		hi = n
	}
	if lo < rs.ovBitLo {
		lo = rs.ovBitLo
	}
	if hi > rs.ovBitHi {
		hi = rs.ovBitHi
	}
	if lo >= hi {
		return 0
	}
	from := (lo + g - 1) / g * g
	if rs.ovReb > from {
		from = rs.ovReb
	}
	target := hi / g * g
	if hi == n {
		// The bitmap ends here: the final partial granule has all its
		// words landed, and RebuildRange accepts hi == n.
		target = n
	}
	if target <= from {
		return 0
	}
	written := rs.inSum.RebuildRange(rs.inQ, from, target)
	rs.ovReb = target
	rs.addDoneSpan(from, target)
	return rs.team.Parallel(machine.PhaseLoad{
		SeqBytes: (target-from)/8 + written*8,
		SeqLoc:   r.inqLoc(),
	})
}

// addDoneSpan records a rebuilt interval, merging contiguous extensions
// of the current run and keeping the list sorted by lo (the list has at
// most one span per pipeline run, so insertion sort is alloc-free and
// cheap).
func (rs *rankState) addDoneSpan(lo, hi int64) {
	for i := range rs.ovDone {
		if rs.ovDone[i].hi == lo {
			rs.ovDone[i].hi = hi
			return
		}
	}
	rs.ovDone = append(rs.ovDone, bitSpan{lo: lo, hi: hi})
	for i := len(rs.ovDone) - 1; i > 0 && rs.ovDone[i].lo < rs.ovDone[i-1].lo; i-- {
		rs.ovDone[i], rs.ovDone[i-1] = rs.ovDone[i-1], rs.ovDone[i]
	}
}

// rebuildShareGaps rebuilds the summary-share intervals the pipelined
// rebuild could not cover (granules over other local ranks' in_queue
// words, and granules straddling segment boundaries), after the node
// barrier made all of in_queue final. Together with the chunk-time
// rebuilds this covers [bitLo, bitHi) exactly once, so the summary is
// bit-identical to level 5's serial rebuild.
func (rs *rankState) rebuildShareGaps(p *mpi.Proc, bitLo, bitHi int64) {
	r := rs.r
	var bytes, written int64
	pos := bitLo
	for _, sp := range rs.ovDone {
		if sp.lo > pos {
			written += rs.inSum.RebuildRange(rs.inQ, pos, sp.lo)
			bytes += (sp.lo - pos) / 8
		}
		if sp.hi > pos {
			pos = sp.hi
		}
	}
	if pos < bitHi {
		written += rs.inSum.RebuildRange(rs.inQ, pos, bitHi)
		bytes += (bitHi - pos) / 8
	}
	p.Compute(rs.team.Parallel(machine.PhaseLoad{
		SeqBytes: bytes + written*8,
		SeqLoc:   r.inqLoc(),
	}))
}
