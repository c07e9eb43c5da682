package bfs2d

import (
	"fmt"
	"math"
	"sort"

	"numabfs/internal/bitmap"
	"numabfs/internal/collective"
	"numabfs/internal/mpi"
	"numabfs/internal/omp"
	"numabfs/internal/wire"
)

// Setup generates the graph and builds the 2-D partitioned adjacency:
// each rank generates a slice of the R-MAT edge list, routes each
// directed adjacency (u, v) to the grid rank at (row of v's block,
// column of u), and builds its local CSR over the column's vertex range.
func (r *Runner) Setup() {
	r.alpha, r.beta, r.granularity = r.Alpha, r.Beta, r.Granularity
	if r.alpha == 0 {
		r.alpha = DefaultAlpha
	}
	if r.beta == 0 {
		r.beta = DefaultBeta
	}
	if r.granularity == 0 {
		r.granularity = DefaultGranularity
	}
	if r.Mode != ModeTopDown {
		if r.blockSize%64 != 0 {
			panic(fmt.Sprintf("bfs2d: %s mode needs a block size divisible by 64, have %d", r.Mode, r.blockSize))
		}
		colWords := int64(r.Grid.R) * r.blockSize / 64
		rowWords := int64(r.Grid.C) * r.blockSize / 64
		r.colLayout = collective.EvenLayout(colWords, r.Grid.R)
		r.rowLayout = collective.EvenLayout(rowWords, r.Grid.C)
	}
	// Generation and routing are indexed by grid cell, not world rank:
	// with spares parked only the grid ranks run, and at zero spares
	// cell == rank so the historical slicing is reproduced exactly.
	r.W.Run(func(p *mpi.Proc) {
		cfg := r.cfg
		cells := r.Grid.R * r.Grid.C
		me := p.Rank()
		cell := int64(r.rankCell[me])
		ne := r.Params.NumEdges()
		lo := ne * cell / int64(cells)
		hi := ne * (cell + 1) / int64(cells)

		send := make([][]int64, cells)
		route := func(u, v int64) {
			j := int(u / (int64(r.Grid.R) * r.blockSize))
			i := int(v/r.blockSize) % r.Grid.R
			send[j*r.Grid.R+i] = append(send[j*r.Grid.R+i], u, v)
		}
		for e := lo; e < hi; e++ {
			u, v := r.Params.EdgeAt(e)
			if u == v {
				continue
			}
			route(u, v)
			route(v, u)
		}
		p.Compute(float64(hi-lo) * float64(r.Params.Scale) * 6 * cfg.CPUOpNs)

		recv := r.grid.AlltoallvInt64(p, send)

		i, j := r.gridOf(me)
		cLo, cHi := r.colRange(j)
		width := cHi - cLo
		rs := &rankState{
			r: r, i: i, j: j,
			team:   omp.TeamFor(cfg, r.pl),
			rowPtr: make([]int64, width+1),
		}
		// Counting pass, fill, per-row sort + dedup.
		var pairs []int64
		for _, vec := range recv {
			pairs = append(pairs, vec...)
		}
		for k := 0; k+1 < len(pairs); k += 2 {
			rs.rowPtr[pairs[k]-cLo+1]++
		}
		for w := int64(0); w < width; w++ {
			rs.rowPtr[w+1] += rs.rowPtr[w]
		}
		rs.col = make([]int64, rs.rowPtr[width])
		fill := make([]int64, width)
		for k := 0; k+1 < len(pairs); k += 2 {
			u := pairs[k] - cLo
			rs.col[rs.rowPtr[u]+fill[u]] = pairs[k+1]
			fill[u]++
		}
		kept := int64(0)
		newPtr := make([]int64, width+1)
		for u := int64(0); u < width; u++ {
			row := rs.col[rs.rowPtr[u]:rs.rowPtr[u+1]]
			sort.Slice(row, func(a, b int) bool { return row[a] < row[b] })
			var prev int64 = -1
			for _, v := range row {
				if v != prev {
					rs.col[kept] = v
					kept++
					prev = v
				}
			}
			newPtr[u+1] = kept
		}
		rs.col = rs.col[:kept]
		rs.rowPtr = newPtr

		m := float64(len(pairs) / 2)
		logd := math.Log2(1 + m/math.Max(1, float64(width)))
		p.Compute(m*16/cfg.MemBWPerSocket + m*logd*4*cfg.CPUOpNs)

		rs.parent = make([]int64, r.blockSize)
		if r.Compress {
			rs.codec = &wire.Codec{Team: rs.team, Loc: r.pl.PrivateLoc}
			rs.foldCodec = &wire.Codec{Team: rs.team, Loc: r.pl.PrivateLoc}
		}
		if r.Mode != ModeTopDown {
			rs.colVisited = bitmap.New(width)
			rs.colFront = bitmap.New(width)
			rs.rowFront = bitmap.New(int64(r.Grid.C) * r.blockSize)
			rs.rowSum = bitmap.NewSummary(int64(r.Grid.C)*r.blockSize, r.granularity)
			rs.sendCol = make([][]int64, r.Grid.R)
			if r.Compress {
				rs.colCodec = &wire.Codec{Team: rs.team, Loc: r.pl.PrivateLoc}
				rs.rowCodec = &wire.Codec{Team: rs.team, Loc: r.pl.PrivateLoc}
			}
		}
		rs.sendRow = make([][]int64, r.Grid.C)
		rs.sent = make([]int64, int64(r.Grid.C)*r.blockSize)
		for k := range rs.sent {
			rs.sent[k] = -1
		}
		r.states[me] = rs
	})
	r.SetupNs = r.W.MaxClock()
	r.W.ResetClocks()
	r.totalEdges = 0
	for _, rs := range r.states {
		if rs != nil {
			r.totalEdges += int64(len(rs.col))
		}
	}
}

// neighbors returns the locally stored adjacency of global vertex u
// (which must lie in this rank's column range).
func (rs *rankState) neighbors(u int64) []int64 {
	cLo, _ := rs.r.colRange(rs.j)
	i := u - cLo
	return rs.col[rs.rowPtr[i]:rs.rowPtr[i+1]]
}

// ownLo returns the first vertex of the rank's owned block.
func (rs *rankState) ownLo() int64 {
	return rs.r.block(rs.i, rs.j) * rs.r.blockSize
}
