package msbfs

import (
	"numabfs/internal/bfs"
	"numabfs/internal/machine"
	"numabfs/internal/mpi"
	"numabfs/internal/trace"
)

// publishFrontier runs one level boundary: the freshly written owned
// out-plane segments become the next level's in-plane. When any active
// lane runs bottom-up next, every rank needs the WHOLE plane and its
// summary — one allgather round, shared by all 64 lanes; this is the
// amortization the batch exists for, counted in rounds. When every
// active lane runs top-down next, the boundary is a local owned-segment
// copy: top-down reads nothing beyond the owned segment, so sequential
// runs' per-root allgathers simply never happen.
func (ls *laneState) publishFrontier(p *mpi.Proc, needPlane bool) {
	r := ls.r
	wlo := r.planeLayout.Displs[ls.pos]
	wcnt := r.planeLayout.Counts[ls.pos]
	if !needPlane {
		t0 := p.Clock()
		copy(ls.inPlane.Words()[wlo:wlo+wcnt], ls.outPlane.Words()[wlo:wlo+wcnt])
		p.Compute(ls.team.Parallel(machine.PhaseLoad{
			SeqBytes: wcnt * 16, SeqLoc: r.inqLoc(),
		}))
		ls.charge(trace.Switch, t0, p.Clock())
		return
	}
	// Synchronize before touching shared buffers (as bfs's bottom-up
	// conversion does), then the two allgathers of Fig. 1 — once per
	// level for the whole batch.
	t0 := p.Clock()
	wait := p.Barrier()
	ls.bd.Add(trace.Stall, wait)
	ls.bd.Add(trace.BUComm, p.Clock()-t0-wait)
	ls.rec.PhaseSpan(trace.Stall, ls.levels, t0, t0+wait)
	ls.rec.PhaseSpan(trace.BUComm, ls.levels, t0+wait, p.Clock())
	t0, x0 := p.Clock(), p.XportNs()
	ls.exchange().AllgatherFrontier(p, ls.inPlane.Words(), ls.outPlane.Words(), r.planeLayout, ls.pos, ls.planeCodec)
	ls.allgatherSummary(p)
	ls.chargeComm(p, trace.BUComm, t0, x0)
	ls.rounds++
	ls.bd.BUCommCount++
}

// allgatherSummary rebuilds this rank's share of the lane summary from
// the freshly allgathered plane and distributes it — the second, much
// smaller allgather, also paid once per level for the whole batch.
func (ls *laneState) allgatherSummary(p *mpi.Proc) {
	r := ls.r

	vLo, vHi := ls.shareVerts(ls.pos)
	written := ls.inSum.RebuildRange(ls.inPlane, vLo, vHi)
	p.Compute(ls.team.Parallel(machine.PhaseLoad{
		SeqBytes: (vHi-vLo)*8 + written*8,
		SeqLoc:   r.inqLoc(),
	}))
	ls.exchange().AllgatherSummary(p, ls.inSum.Plane().Words(), r.sumLayout, ls.sumCodec)
}

// exchange returns the rank's view of the 1-D allgather ladder. A plane
// segment is a bitmap of 64·n bits whose density is the mean lane
// density, and the plane layout follows the vertex partition, so every
// level applies to lane-plane words unchanged.
func (ls *laneState) exchange() bfs.Exchange {
	r := ls.r
	return bfs.Exchange{Opt: r.Opts.Opt, All: r.AllGroup, NC: r.NC, Team: ls.team, StageLoc: r.pl.PrivateLoc}
}

// shareVerts returns the vertex range [vLo, vHi) of a rank's
// lane-summary share (granule-aligned; clamped to the vertex count).
// The summary layout is in granule words, one word per granule.
func (ls *laneState) shareVerts(pos int) (int64, int64) {
	r := ls.r
	g := r.Opts.Granularity
	n := r.Params.NumVertices()
	vLo := r.sumLayout.Displs[pos] * g
	vHi := (r.sumLayout.Displs[pos] + r.sumLayout.Counts[pos]) * g
	if vLo > n {
		vLo = n
	}
	if vHi > n {
		vHi = n
	}
	return vLo, vHi
}
