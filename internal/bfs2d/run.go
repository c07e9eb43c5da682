package bfs2d

import (
	"numabfs/internal/collective"
	"numabfs/internal/fault"
	"numabfs/internal/machine"
	"numabfs/internal/mpi"
	"numabfs/internal/obs"
	"numabfs/internal/omp"
	"numabfs/internal/simnet"
	"numabfs/internal/trace"
	"numabfs/internal/wire"
)

// RootResult summarizes one 2-D BFS iteration. The fields mirror
// bfs.RootResult so the two engines diff cleanly (obsdiff, the
// crossover experiment): Wire, Xport and Faults are zero/empty for a
// clean uncompressed run, exactly as in the 1-D engine.
type RootResult struct {
	Root           int64
	TimeNs         float64
	Visited        int64
	TraversedEdges int64
	TEPS           float64
	Levels         int
	Breakdown      trace.Breakdown // mean across ranks
	// LevelStats is the frontier growth curve (rank 0's view; the
	// frontier values are allreduced and identical everywhere). MF is
	// filled in hybrid/bottom-up modes, where the switch heuristic pays
	// for the frontier-edge allreduce; pure top-down leaves it 0 rather
	// than perturb the historical cost model.
	LevelStats []trace.LevelStat
	// CommBytes is the exact total network volume (intra + inter) of
	// the iteration, for comparison with the 1-D engine. With Compress
	// on these are wire bytes; RawCommBytes is the logical volume
	// (identical to CommBytes when compression is off).
	CommBytes    int64
	RawCommBytes int64
	// Wire aggregates every rank's codec decisions for the iteration
	// (expand lists, fold pairs and bottom-up bitmap segments); zero
	// unless Compress is set.
	Wire wire.Stats
	// Xport is the reliable-transport ledger of the iteration; all-zero
	// unless the fault plan declares lossy links.
	Xport simnet.Xport
	// Faults lists the rank crashes this iteration survived via
	// full-rerun recovery, in recovery order. When non-empty,
	// CommBytes/RawCommBytes and Wire include the lost attempts'
	// partial traffic, as in the 1-D engine.
	Faults []*mpi.FaultError
	// MTTRNs is the summed modelled repair time of the survived faults:
	// detection delay (crash to heartbeat-lease expiry) plus the cell
	// re-own transfer when a spare was promoted.
	MTTRNs float64
	// Epoch is the world-view number the iteration finished in: 0 until
	// a promotion replaced a permanently dead rank.
	Epoch int
}

// RunRoot runs one 2-D BFS from root. Rank clocks are reset, so TimeNs
// is the iteration's virtual duration. Under an active crash plan the
// iteration recovers by rerunning from the root with clocks floored at
// crash-detection time (the 2-D engine keeps no checkpoints).
func (r *Runner) RunRoot(root int64) RootResult {
	if len(r.states) == 0 || r.states[r.cellRank[0]] == nil {
		panic("bfs2d: RunRoot before Setup")
	}
	r.W.ResetClocks()
	for _, rs := range r.states {
		if rs == nil {
			continue
		}
		rs.pendingRecoveryNs, rs.pendingReownNs = 0, 0
		for _, c := range []*wire.Codec{rs.codec, rs.foldCodec, rs.colCodec, rs.rowCodec} {
			if c != nil {
				c.ResetStats()
			}
		}
	}
	var faults []*mpi.FaultError
	var mttrNs float64
	err := r.W.TryRun(func(p *mpi.Proc) {
		rs := r.states[p.Rank()]
		rs.run(p, r.grid, root)
	})
	for attempt := 0; err != nil; attempt++ {
		f, ok := err.(*mpi.FaultError)
		if !ok || f.Kind != fault.KindCrash || !r.crashOn || attempt >= len(r.faults.Crashes) {
			panic(err)
		}
		faults = append(faults, f)
		inj := r.W.Injector()
		inj.Disarm(f.Rank, f.AtNs)
		var floor float64
		if f.Permanent {
			// Permanent death: the survivors learn of it when the dead
			// rank's heartbeat lease expires. With a spare available its
			// grid cell is remapped; otherwise the dead rank reruns in
			// place (the 2-D engine never shrinks the grid).
			floor = inj.DetectionTimeNs(f.AtNs)
			r.W.Proc(f.Rank).Obs().FaultEvent("detect", floor)
			r.promote(f.Rank, floor)
		} else {
			floor = f.AtNs + inj.DetectTimeoutNs()
		}
		var maxReown float64
		for _, rs := range r.states {
			if rs != nil && rs.pendingReownNs > maxReown {
				maxReown = rs.pendingReownNs
			}
		}
		mttrNs += (floor - f.AtNs) + maxReown
		r.W.PrepareRecovery()
		err = r.W.TryRun(func(p *mpi.Proc) {
			rs := r.states[p.Rank()]
			// Full-rerun recovery: clocks restart at the detection floor
			// (plus any parked cell re-own transfer), and the floor is
			// charged to the Recovery phase once run()'s reset has wiped
			// the breakdown.
			p.RestoreClock(floor + rs.pendingReownNs)
			rs.pendingRecoveryNs = floor
			rec := p.Obs()
			rec.PhaseSpan(trace.Recovery, 0, 0, floor)
			rec.FaultEvent("recover", floor)
			rs.run(p, r.grid, root)
		})
	}
	res := RootResult{
		Root: root, TimeNs: r.W.MaxClock(), Faults: faults,
		MTTRNs: mttrNs, Epoch: r.W.Epoch(),
	}
	cells := r.Grid.R * r.Grid.C
	var bd trace.Breakdown
	for _, rs := range r.states {
		if rs == nil {
			continue
		}
		bd.Merge(rs.bd)
		for _, pa := range rs.parent {
			if pa >= 0 {
				res.Visited++
			}
		}
		if rs.levelsRun() > res.Levels {
			res.Levels = rs.levelsRun()
		}
	}
	// Traversed edges: sum local adjacencies whose source was visited;
	// every undirected edge is stored twice across the grid.
	for _, rs := range r.states {
		if rs == nil {
			continue
		}
		cLo, cHi := r.colRange(rs.j)
		for u := cLo; u < cHi; u++ {
			if r.states[r.ownerOf(u)].parentOf(u) >= 0 {
				res.TraversedEdges += rs.rowPtr[u-cLo+1] - rs.rowPtr[u-cLo]
			}
		}
	}
	res.TraversedEdges /= 2
	bd.Scale(1 / float64(cells))
	cell0 := r.states[r.cellRank[0]]
	bd.TDLevels = cell0.bd.TDLevels
	bd.BULevels = cell0.bd.BULevels
	bd.BUCommCount = cell0.bd.BUCommCount
	res.Breakdown = bd
	res.LevelStats = append([]trace.LevelStat(nil), cell0.levelStats...)
	vol := r.W.Net().Volume()
	res.CommBytes = vol.IntraBytes + vol.InterBytes
	res.RawCommBytes = vol.RawIntraBytes + vol.RawInterBytes
	res.Xport = vol.Xport
	for _, rs := range r.states {
		if rs == nil {
			continue
		}
		for _, c := range []*wire.Codec{rs.codec, rs.foldCodec, rs.colCodec, rs.rowCodec} {
			if c != nil {
				res.Wire.Add(c.Stats())
			}
		}
	}
	if res.TimeNs > 0 {
		res.TEPS = float64(res.TraversedEdges) / (res.TimeNs / 1e9)
	}
	return res
}

// parentOf returns the parent of owned vertex v.
func (rs *rankState) parentOf(v int64) int64 {
	return rs.parent[v-rs.ownLo()]
}

// levelsRun reports how many levels this rank recorded.
func (rs *rankState) levelsRun() int { return rs.levels }

// run executes the lockstep level loop on this rank. All control
// decisions (mode switch, termination) derive from allreduced values,
// so the collective call pattern is identical across ranks.
func (rs *rankState) run(p *mpi.Proc, all *collective.Group, root int64) {
	r := rs.r
	rs.reset()
	rs.rec = p.Obs()
	if rs.pendingRecoveryNs > 0 {
		rs.bd.Add(trace.Recovery, rs.pendingRecoveryNs)
		rs.pendingRecoveryNs = 0
	}
	if rs.pendingReownNs > 0 {
		rs.bd.Add(trace.Reown, rs.pendingReownNs)
		rs.rec.PhaseSpan(trace.Reown, 0, p.Clock()-rs.pendingReownNs, p.Clock())
		rs.pendingReownNs = 0
	}

	lo := rs.ownLo()
	var nfLocal int64
	if r.ownerOf(root) == p.Rank() {
		rs.parent[root-lo] = root
		rs.frontier = append(rs.frontier, root)
		nfLocal = 1
	}
	t0, x0 := p.Clock(), p.XportNs()
	nf := all.AllreduceSumInt64(p, nfLocal)
	rs.chargeComm(p, trace.TDComm, t0, x0)

	col := r.cols[rs.j]
	row := r.rows[rs.i]

	bottomUp := r.Mode == ModeBottomUp
	if bottomUp {
		rs.seedBottomUp(p, root)
	}
	prevNf := nf
	var visitedEdgesGlobal int64
	n := float64(r.Params.NumVertices())

	for nf > 0 {
		rs.levels++
		levelStart := p.Clock()
		if r.Mode == ModeHybrid && bottomUp && float64(nf) < n/r.beta {
			rs.switchToTopDown(p)
			bottomUp = false
		}
		var dnf int64
		if bottomUp {
			mf := rs.buExpand(p, all, col, row)
			rs.backfillMF(mf)
			visitedEdgesGlobal += mf
			dnf = rs.buScanFold(p, all, col)
		} else {
			lists := rs.expand(p, col)
			if r.Mode != ModeTopDown {
				mf := rs.hybridAccount(p, all, lists)
				rs.backfillMF(mf)
				visitedEdgesGlobal += mf
				// Beamer-style hand-over, as in the 1-D engine: only while
				// the frontier still grows, to keep the tail levels from
				// flapping.
				unexplored := r.totalEdges - visitedEdgesGlobal
				if r.Mode == ModeHybrid && nf > prevNf && float64(mf) > float64(unexplored)/r.alpha {
					rs.switchToBottomUp(p, row)
					bottomUp = true
					dnf = rs.buScanFold(p, all, col)
				}
			}
			if !bottomUp {
				dnf = rs.tdScanFold(p, all, row, lists)
			}
		}
		prevNf, nf = nf, dnf
		if bottomUp {
			rs.bd.BULevels++
		} else {
			rs.bd.TDLevels++
		}
		rs.levelStats = append(rs.levelStats, trace.LevelStat{
			Level: rs.levels, BottomUp: bottomUp, NF: nf,
			Ns: p.Clock() - levelStart,
		})
		rs.rec.LevelSpan(bottomUp, rs.levels, levelStart, p.Clock())
		rs.rec.GaugeSet(obs.GaugeFrontier, p.Clock(), float64(nf))
		rs.rec.GaugeSet(obs.GaugeFrontierDensity, p.Clock(), float64(nf)/n)
	}
}

// expand gathers the frontier of this column's blocks down the
// processor column, returning the per-source-position vertex lists.
func (rs *rankState) expand(p *mpi.Proc, col *collective.Group) [][]int64 {
	t0, x0 := p.Clock(), p.XportNs()
	rs.lists = col.AllgathervInt64(p, rs.frontier, rs.lists, rs.codec)
	rs.chargeComm(p, trace.TDComm, t0, x0)
	return rs.lists
}

// tdScanFold runs the top-down local scan, the row fold and the
// level-terminating frontier allreduce, returning the new global
// frontier size.
func (rs *rankState) tdScanFold(p *mpi.Proc, all *collective.Group, row *collective.Group, lists [][]int64) int64 {
	r := rs.r
	lo := rs.ownLo()

	// LOCAL: scan the expanded frontier's local adjacency.
	send := rs.sendRow
	for c := range send {
		send[c] = send[c][:0]
	}
	rs.sentStamp++
	var edges, frontierLen, sentPairs int64
	for _, list := range lists {
		frontierLen += int64(len(list))
		for _, u := range list {
			for _, v := range rs.neighbors(u) {
				edges++
				// v's owner sits in this grid row at column j(v).
				jc := int(v / (int64(r.Grid.R) * r.blockSize))
				// Send each candidate once per level: the column
				// aggregates R blocks of edges, so the same child is
				// typically discovered many times locally.
				si := int64(jc)*r.blockSize + v%r.blockSize
				if rs.sent[si] == rs.sentStamp {
					continue
				}
				rs.sent[si] = rs.sentStamp
				sentPairs++
				send[jc] = append(send[jc], v, u)
			}
		}
	}
	load := machine.PhaseLoad{
		Random: []machine.Access{
			{Count: frontierLen, StructBytes: int64(len(rs.col)+len(rs.rowPtr)) * 8, Loc: r.pl.GraphLoc},
			// The dedup stamps are probed once per scanned edge.
			{Count: edges, StructBytes: int64(len(rs.sent)) * 8, Loc: r.pl.PrivateLoc},
		},
		SeqBytes: edges*8 + sentPairs*16,
		SeqLoc:   r.pl.GraphLoc,
		CPUOps:   edges * 3,
	}
	ns := rs.team.ForBalanced(edges, 256, load)
	tc := p.Clock()
	p.Compute(ns)
	rs.bd.Add(trace.TDComp, ns)
	rs.rec.PhaseSpan(trace.TDComp, rs.levels, tc, p.Clock())

	// FOLD: route candidates along the grid row to their owners.
	rs.stallBarrier(p, trace.TDComm)
	t0, x0 := p.Clock(), p.XportNs()
	rs.foldOutRow = row.AlltoallvInt64Compressed(p, send, rs.foldOutRow, rs.foldCodec)
	rs.chargeComm(p, trace.TDComm, t0, x0)

	// Resolve visitation at the owners.
	rs.frontier = rs.frontier[:0]
	var nfLocal, pairs int64
	for _, vec := range rs.foldOutRow {
		for k := 0; k+1 < len(vec); k += 2 {
			pairs++
			v, u := vec[k], vec[k+1]
			if i := v - lo; rs.parent[i] < 0 {
				rs.parent[i] = u
				rs.frontier = append(rs.frontier, v)
				nfLocal++
			}
		}
	}
	proc := machine.PhaseLoad{
		Random: []machine.Access{
			{Count: pairs, StructBytes: r.blockSize * 8, Loc: r.pl.PrivateLoc},
		},
		SeqBytes: pairs * 16,
		SeqLoc:   r.pl.PrivateLoc,
		CPUOps:   pairs * 2,
	}
	ns = rs.team.ForBalanced(pairs, 256, proc)
	tc = p.Clock()
	p.Compute(ns)
	rs.bd.Add(trace.TDComp, ns)
	rs.rec.PhaseSpan(trace.TDComp, rs.levels, tc, p.Clock())

	t0, x0 = p.Clock(), p.XportNs()
	nf := all.AllreduceSumInt64(p, nfLocal)
	rs.chargeComm(p, trace.TDComm, t0, x0)
	return nf
}

// hybridAccount folds the freshly expanded frontier into the column
// visited set and allreduces the frontier's stored-edge count — the
// quantities the hybrid switch heuristic runs on. Only called above
// ModeTopDown, so the historical pure top-down cost model is untouched.
func (rs *rankState) hybridAccount(p *mpi.Proc, all *collective.Group, lists [][]int64) int64 {
	r := rs.r
	cLo, _ := r.colRange(rs.j)
	var frontierLen, mfLocal int64
	for _, list := range lists {
		for _, u := range list {
			i := u - cLo
			rs.colVisited.Set(i)
			mfLocal += rs.rowPtr[i+1] - rs.rowPtr[i]
			frontierLen++
		}
	}
	load := machine.PhaseLoad{
		Random: []machine.Access{
			{Count: frontierLen, StructBytes: rs.colVisited.Bytes(), Loc: r.pl.PrivateLoc},
			{Count: frontierLen, StructBytes: int64(len(rs.rowPtr)) * 8, Loc: r.pl.GraphLoc},
		},
		CPUOps: 2 * frontierLen,
	}
	ns := rs.team.ForBalanced(frontierLen, 256, load)
	tc := p.Clock()
	p.Compute(ns)
	rs.bd.Add(trace.TDComp, ns)
	rs.rec.PhaseSpan(trace.TDComp, rs.levels, tc, p.Clock())

	t0, x0 := p.Clock(), p.XportNs()
	mf := all.AllreduceSumInt64(p, mfLocal)
	rs.chargeComm(p, trace.TDComm, t0, x0)
	return mf
}

// backfillMF records the current frontier's global edge count on the
// level stat that discovered it (the edge count only becomes known one
// expand later in the 2-D layout).
func (rs *rankState) backfillMF(mf int64) {
	if k := len(rs.levelStats); k > 0 {
		rs.levelStats[k-1].MF = mf
	}
}

// seedBottomUp initializes the frontier bitmaps for a pure bottom-up
// run: every rank clears its own block segments, the root's owner sets
// the root's bits. The first buExpand's allgathers then distribute
// them. Charged to Switch like the 1-D engine's mode conversions.
func (rs *rankState) seedBottomUp(p *mpi.Proc, root int64) {
	r := rs.r
	rs.clearOwnSegments()
	if r.ownerOf(root) == p.Rank() {
		off := root - rs.ownLo()
		rs.colFront.Set(int64(rs.i)*r.blockSize + off)
		rs.rowFront.Set(int64(rs.j)*r.blockSize + off)
	}
	load := machine.PhaseLoad{
		SeqBytes: r.blockSize / 4, // both own word segments
		SeqLoc:   r.pl.PrivateLoc,
		CPUOps:   r.blockSize / 32,
	}
	tc := p.Clock()
	p.Compute(rs.team.Parallel(load))
	rs.charge(trace.Switch, tc, p.Clock())
}

// switchToBottomUp converts the just-expanded top-down frontier to the
// bottom-up representation: the owned frontier becomes the rank's
// row-frontier segment, the segments are allgathered along the grid
// row, and the summary is rebuilt. Charged to the Switch phase, like
// the 1-D engine's conversion.
func (rs *rankState) switchToBottomUp(p *mpi.Proc, row *collective.Group) {
	r := rs.r
	lo := rs.ownLo()
	base := int64(rs.j) * r.blockSize
	words := rs.rowFront.Words()
	bsw := r.blockSize / 64
	for w := int64(rs.j) * bsw; w < int64(rs.j+1)*bsw; w++ {
		words[w] = 0
	}
	for _, v := range rs.frontier {
		rs.rowFront.Set(base + (v - lo))
	}
	conv := machine.PhaseLoad{
		SeqBytes: r.blockSize/8 + int64(len(rs.frontier))*8,
		SeqLoc:   r.pl.PrivateLoc,
		CPUOps:   r.blockSize/64 + int64(len(rs.frontier)),
	}
	tc := p.Clock()
	p.Compute(rs.team.Parallel(conv))
	rs.charge(trace.Switch, tc, p.Clock())

	t0, x0 := p.Clock(), p.XportNs()
	rs.rowAllgather(p, row)
	rs.chargeComm(p, trace.Switch, t0, x0)
	rs.rebuildSummary(p, trace.Switch)
}

// switchToTopDown extracts the owned frontier list from the column
// frontier bitmap left by the previous bottom-up resolve. Charged to
// the Switch phase.
func (rs *rankState) switchToTopDown(p *mpi.Proc) {
	r := rs.r
	cLo, _ := r.colRange(rs.j)
	base := int64(rs.i) * r.blockSize
	rs.frontier = rs.colFront.AppendSetBits(rs.frontier[:0], base, base+r.blockSize)
	for k := range rs.frontier {
		rs.frontier[k] += cLo // bitmap index is the in-column offset
	}
	load := machine.PhaseLoad{
		SeqBytes: r.blockSize/8 + int64(len(rs.frontier))*8,
		SeqLoc:   r.pl.PrivateLoc,
		CPUOps:   r.blockSize / 64,
	}
	tc := p.Clock()
	p.Compute(rs.team.Parallel(load))
	rs.charge(trace.Switch, tc, p.Clock())
}

// buExpand runs a bottom-up level's communication prologue: allgather
// the owned frontier segments along the column, fold them into the
// visited set, allreduce the frontier's edge count, then allgather the
// row frontier and rebuild its summary. Returns the global frontier
// edge count.
func (rs *rankState) buExpand(p *mpi.Proc, all, col, row *collective.Group) int64 {
	r := rs.r

	t0, x0 := p.Clock(), p.XportNs()
	if rs.colCodec != nil {
		col.AllgatherRingCompressed(p, rs.colFront.Words(), r.colLayout, rs.colCodec)
	} else {
		col.Allgather(p, rs.colFront.Words(), r.colLayout)
	}
	rs.chargeComm(p, trace.BUComm, t0, x0)

	// Fold the column frontier into the visited set and count its
	// stored edges (the hybrid heuristic's mf).
	rs.colVisited.OrFrom(rs.colFront)
	var mfLocal, cnf int64
	rs.colFront.ForEachSet(func(u int64) {
		mfLocal += rs.rowPtr[u+1] - rs.rowPtr[u]
		cnf++
	})
	load := machine.PhaseLoad{
		Random: []machine.Access{
			{Count: cnf, StructBytes: int64(len(rs.rowPtr)) * 8, Loc: r.pl.GraphLoc},
		},
		SeqBytes: 2 * rs.colFront.Bytes(),
		SeqLoc:   r.pl.PrivateLoc,
		CPUOps:   rs.colFront.Bytes()/8 + cnf,
	}
	tc := p.Clock()
	p.Compute(rs.team.Parallel(load))
	rs.charge(trace.BUComp, tc, p.Clock())

	t0, x0 = p.Clock(), p.XportNs()
	mf := all.AllreduceSumInt64(p, mfLocal)
	rs.chargeComm(p, trace.BUComm, t0, x0)

	t0, x0 = p.Clock(), p.XportNs()
	rs.rowAllgather(p, row)
	rs.chargeComm(p, trace.BUComm, t0, x0)
	rs.bd.BUCommCount++
	rs.rebuildSummary(p, trace.BUComp)
	return mf
}

// rowAllgather gathers the owned frontier segments along the grid row.
func (rs *rankState) rowAllgather(p *mpi.Proc, row *collective.Group) {
	r := rs.r
	if rs.rowCodec != nil {
		row.AllgatherRingCompressed(p, rs.rowFront.Words(), r.rowLayout, rs.rowCodec)
	} else {
		row.Allgather(p, rs.rowFront.Words(), r.rowLayout)
	}
}

// rebuildSummary recomputes the row-frontier summary after an
// allgather, charging the pass to ph.
func (rs *rankState) rebuildSummary(p *mpi.Proc, ph trace.Phase) {
	r := rs.r
	written := rs.rowSum.Rebuild(rs.rowFront)
	load := machine.PhaseLoad{
		SeqBytes: rs.rowFront.Bytes() + written*8,
		SeqLoc:   r.pl.PrivateLoc,
		CPUOps:   rs.rowFront.Bytes() / 8,
	}
	tc := p.Clock()
	p.Compute(rs.team.Parallel(load))
	rs.charge(ph, tc, p.Clock())
}

// buScanFold runs the bottom-up scan over the column's unvisited
// vertices, folds the (child, parent) candidates along the column to
// their owners, resolves visitation and allreduces the new frontier
// size.
func (rs *rankState) buScanFold(p *mpi.Proc, all, col *collective.Group) int64 {
	r := rs.r
	cLo, _ := r.colRange(rs.j)
	width := int64(r.Grid.R) * r.blockSize

	send := rs.sendCol
	for i := range send {
		send[i] = send[i][:0]
	}
	res := rs.team.For(width, omp.DefaultChunk, func(lo, hi int64, load *machine.PhaseLoad) {
		var cSum, cRow, cEdges, cFound int64
		for u := lo; u < hi; u++ {
			if rs.colVisited.Get(u) {
				continue
			}
			for _, v := range rs.col[rs.rowPtr[u]:rs.rowPtr[u+1]] {
				cEdges++
				jc := int(v / (int64(r.Grid.R) * r.blockSize))
				si := int64(jc)*r.blockSize + v%r.blockSize
				cSum++
				if rs.rowSum.CoveredZero(si) {
					continue
				}
				cRow++
				if rs.rowFront.Get(si) {
					cFound++
					iu := int(u / r.blockSize)
					send[iu] = append(send[iu], u+cLo, v)
					break
				}
			}
		}
		load.Random = []machine.Access{
			{Count: cSum, StructBytes: rs.rowSum.Bytes(), Loc: r.pl.PrivateLoc},
			{Count: cRow, StructBytes: rs.rowFront.Bytes(), Loc: r.pl.PrivateLoc},
		}
		load.SeqBytes = (hi-lo)/8 + cEdges*8 + cFound*16
		load.SeqLoc = r.pl.GraphLoc
		load.CPUOps = cEdges*2 + (hi - lo)
	})
	tc := p.Clock()
	p.Compute(res.Ns)
	rs.charge(trace.BUComp, tc, p.Clock())

	rs.stallBarrier(p, trace.BUComm)
	t0, x0 := p.Clock(), p.XportNs()
	rs.foldOutCol = col.AlltoallvInt64Compressed(p, send, rs.foldOutCol, rs.foldCodec)
	rs.chargeComm(p, trace.BUComm, t0, x0)

	// Resolve at the owners: clear the owned frontier segments, then
	// mark the newly discovered vertices. Source-position order makes
	// the first-writer deterministic.
	lo := rs.ownLo()
	rs.clearOwnSegments()
	var nfLocal, pairs int64
	for _, vec := range rs.foldOutCol {
		for k := 0; k+1 < len(vec); k += 2 {
			pairs++
			v, u := vec[k], vec[k+1]
			if i := v - lo; rs.parent[i] < 0 {
				rs.parent[i] = u
				rs.colFront.Set(int64(rs.i)*r.blockSize + i)
				rs.rowFront.Set(int64(rs.j)*r.blockSize + i)
				nfLocal++
			}
		}
	}
	proc := machine.PhaseLoad{
		Random: []machine.Access{
			{Count: pairs, StructBytes: r.blockSize * 8, Loc: r.pl.PrivateLoc},
		},
		SeqBytes: pairs*16 + r.blockSize/4,
		SeqLoc:   r.pl.PrivateLoc,
		CPUOps:   pairs * 2,
	}
	ns := rs.team.ForBalanced(pairs, 256, proc)
	tc = p.Clock()
	p.Compute(ns)
	rs.charge(trace.BUComp, tc, p.Clock())

	t0, x0 = p.Clock(), p.XportNs()
	nf := all.AllreduceSumInt64(p, nfLocal)
	rs.chargeComm(p, trace.BUComm, t0, x0)
	return nf
}

// clearOwnSegments zeroes the rank's own block segment in the column
// and row frontier bitmaps (the previous level's frontier).
func (rs *rankState) clearOwnSegments() {
	r := rs.r
	bsw := r.blockSize / 64
	cw := rs.colFront.Words()
	for w := int64(rs.i) * bsw; w < int64(rs.i+1)*bsw; w++ {
		cw[w] = 0
	}
	rw := rs.rowFront.Words()
	for w := int64(rs.j) * bsw; w < int64(rs.j+1)*bsw; w++ {
		rw[w] = 0
	}
}

// stallBarrier separates computation from communication as the paper's
// profiling does: the wait at the barrier is load-imbalance stall, the
// dissemination rounds themselves are communication.
func (rs *rankState) stallBarrier(p *mpi.Proc, comm trace.Phase) {
	t0 := p.Clock()
	wait := p.Barrier()
	rs.bd.Add(trace.Stall, wait)
	rs.bd.Add(comm, p.Clock()-t0-wait)
	rs.rec.PhaseSpan(trace.Stall, rs.levels, t0, t0+wait)
	rs.rec.PhaseSpan(comm, rs.levels, t0+wait, p.Clock())
}

// charge adds the [start, end) interval to phase ph and, when tracing
// is on, records it as a span at the current level.
func (rs *rankState) charge(ph trace.Phase, start, end float64) {
	rs.bd.Add(ph, end-start)
	rs.rec.PhaseSpan(ph, rs.levels, start, end)
}

// chargeComm is charge for a communication section: the reliable
// transport's stall accrued inside it is carved into trace.Xport, so
// lossy-link protocol time never masquerades as algorithmic
// communication. x0 is p.XportNs() sampled at the section start; with
// no loss plan the delta is exactly 0.0 and the charge is bit-identical
// to charge().
func (rs *rankState) chargeComm(p *mpi.Proc, ph trace.Phase, t0, x0 float64) {
	end := p.Clock()
	dx := p.XportNs() - x0
	rs.bd.Add(trace.Xport, dx)
	rs.bd.Add(ph, end-t0-dx)
	rs.rec.PhaseSpan(ph, rs.levels, t0, end)
}

// reset clears per-root state.
func (rs *rankState) reset() {
	for i := range rs.parent {
		rs.parent[i] = -1
	}
	rs.frontier = rs.frontier[:0]
	rs.bd = trace.Breakdown{}
	rs.levels = 0
	rs.levelStats = rs.levelStats[:0]
	if rs.colVisited != nil {
		rs.colVisited.Reset()
	}
}
