package bfs

import (
	"numabfs/internal/collective"
	"numabfs/internal/machine"
	"numabfs/internal/mpi"
	"numabfs/internal/omp"
	"numabfs/internal/wire"
)

// Exchange is one rank's view of the 1-D allgather ladder: the
// optimization level and the communicators its collectives run on. The
// single-root engine and MS-BFS (whose lane planes follow the same
// vertex partition) both distribute their frontiers through it, so the
// level → collective mapping lives here once.
type Exchange struct {
	Opt Opt
	All *collective.Group    // every rank: the MPI library's default allgather
	NC  *collective.NodeComm // the node-aware variants
	// Team and StageLoc charge OptOriginal's staging copy of the owned
	// segment into the private in_queue.
	Team     omp.Team
	StageLoc machine.Locality
}

// AllgatherFrontier runs the in_queue allgather of Fig. 1 at any level
// below OptOverlapAllgather (whose pipelined exchange is the 1-D
// engine's own). On entry out's owned segment — segment pos of layout
// l — holds this rank's new frontier words; on return in holds the full
// frontier. c is the compressed level's codec and nil below it, so
// OptParAllgather and OptCompressedAllgather are one collective on the
// raw and the encoded wire.
func (x Exchange) AllgatherFrontier(p *mpi.Proc, in, out []uint64, l collective.Layout, pos int, c *wire.Codec) {
	lo, cnt := l.Displs[pos], l.Counts[pos]
	own := out[lo : lo+cnt]
	switch x.Opt {
	case OptOriginal:
		// Stage the owned segment into the private in_queue, then the
		// MPI library's default allgather over all ranks.
		copy(in[lo:lo+cnt], own)
		p.Compute(x.Team.Parallel(machine.PhaseLoad{SeqBytes: cnt * 16, SeqLoc: x.StageLoc}))
		x.All.Allgather(p, in, l)
	case OptShareInQueue:
		// Children send their private segments to the node leader, which
		// assembles the node-shared in_queue; no broadcast back.
		x.NC.SharedInQueueAllgather(p, in, own, l)
	case OptShareAll:
		// out is node-shared too: the leader reads children's segments
		// directly; neither gather nor broadcast.
		x.NC.SharedAllAllgather(p, in, out, l)
	default:
		// Per-socket subgroups allgather concurrently into the shared
		// in_queue, each segment raw or in the codec's adaptive wire
		// format (sparse at low frontier density, RLE/dense near
		// saturation).
		x.NC.ParallelAllgatherCompressed(p, in, own, l, c)
	}
}

// AllgatherSummary runs the second, much smaller allgather of Fig. 1:
// every rank has rebuilt its share of the frontier summary in place in
// sum (layout l); on return sum holds every share. c is the summary
// codec, nil below OptCompressedAllgather.
func (x Exchange) AllgatherSummary(p *mpi.Proc, sum []uint64, l collective.Layout, c *wire.Codec) {
	switch x.Opt {
	case OptOriginal, OptShareInQueue:
		// Private summary: the default allgather distributes the shares.
		x.All.Allgather(p, sum, l)
	case OptShareAll:
		// Shared summary, contributions rebuilt in place.
		x.NC.SharedInPlaceAllgather(p, sum, l)
	default:
		// The summary is orders of magnitude smaller than in_queue, but
		// it is also far sparser early on — the same codec pays off.
		// (It stays blocking at the overlap level: it is too small for
		// chunking to hide anything.)
		x.NC.ParallelAllgatherInPlace(p, sum, l, c)
	}
}

// exchange returns the rank's current view of the ladder (the node
// communicator is rebuilt by a shrink, so it is read per call).
func (rs *rankState) exchange() Exchange {
	r := rs.r
	return Exchange{Opt: r.Opts.Opt, All: r.AllGroup, NC: r.NC, Team: rs.team, StageLoc: r.pl.PrivateLoc}
}

// allgatherInQueue runs the in_queue allgather under the configured
// optimization level. On entry every rank's new frontier bits sit in its
// owned out_queue segment; on return every rank's in_queue view holds
// the full new frontier bitmap.
func (rs *rankState) allgatherInQueue(p *mpi.Proc) {
	if rs.r.Opts.Opt == OptOverlapAllgather {
		rs.overlapAllgatherInQueue(p)
		return
	}
	rs.exchange().AllgatherFrontier(p, rs.inQ.Words(), rs.outQ.Words(), rs.r.wordLayout, rs.pos, rs.inqCodec)
}

// allgatherSummary rebuilds this rank's share of in_queue_summary from
// the freshly allgathered in_queue and runs the summary allgather.
func (rs *rankState) allgatherSummary(p *mpi.Proc) {
	r := rs.r

	// This rank's summary share in summary words -> base bit range.
	bitLo, bitHi := rs.shareBits(rs.pos)
	if r.Opts.Opt >= OptOverlapAllgather {
		// Most of the share was rebuilt chunk-by-chunk inside the
		// pipelined allgather; only the gaps remain.
		rs.rebuildShareGaps(p, bitLo, bitHi)
	} else {
		written := rs.inSum.RebuildRange(rs.inQ, bitLo, bitHi)
		p.Compute(rs.team.Parallel(machine.PhaseLoad{
			SeqBytes: (bitHi-bitLo)/8 + written*8,
			SeqLoc:   r.inqLoc(),
		}))
	}
	rs.exchange().AllgatherSummary(p, rs.inSum.Bits().Words(), r.sumLayout, rs.sumCodec)
}

// shareBits returns the base-bit range [bitLo, bitHi) of a partition
// position's in_queue_summary share (granule-aligned; clamped to the
// vertex count).
func (rs *rankState) shareBits(pos int) (int64, int64) {
	r := rs.r
	g := r.Opts.Granularity
	n := r.Params.NumVertices()
	slo := r.sumLayout.Displs[pos]
	scnt := r.sumLayout.Counts[pos]
	bitLo := slo * 64 * g
	bitHi := (slo + scnt) * 64 * g
	if bitLo > n {
		bitLo = n
	}
	if bitHi > n {
		bitHi = n
	}
	return bitLo, bitHi
}
