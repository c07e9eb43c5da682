package graph

import (
	"math"

	"numabfs/internal/collective"
	"numabfs/internal/mpi"
	"numabfs/internal/rmat"
)

// BuildDistributed is Graph500 kernel 1 in its distributed form: every
// rank generates its slice of the R-MAT edge list, routes each endpoint
// to the owner of that vertex (undirected: both directions), and builds
// its local CSR. Generation and construction costs are charged to the
// rank's virtual clock; the alltoallv charges communication. Returns the
// rank's local CSR.
func BuildDistributed(p *mpi.Proc, g *collective.Group, part Partition, params rmat.Params, dedup bool) *CSR {
	vlo, vhi := part.Range(g.Pos(p.Rank()))
	return BuildRouted(p, g, params, vlo, vhi, func(u, _ int64) int { return part.Owner(u) }, dedup)
}

// BuildRouted is kernel 1 on one rank of g for any adjacency layout. The
// rank at position me of g's np generates edges
// [NumEdges*me/np, NumEdges*(me+1)/np) and sends every non-loop edge
// both ways: (u, v) to position dest(u, v), (v, u) to dest(v, u). From
// what it receives it builds the CSR of source range [lo, hi).
// Generation and construction are charged to the rank's clock; the
// alltoallv charges communication.
func BuildRouted(p *mpi.Proc, g *collective.Group, params rmat.Params, lo, hi int64, dest func(u, v int64) int, dedup bool) *CSR {
	cfg := p.World().Config()
	np := g.Size()
	me := g.Pos(p.Rank())
	ne := params.NumEdges()
	elo := ne * int64(me) / int64(np)
	ehi := ne * int64(me+1) / int64(np)

	send := routeEdges(params, elo, ehi, np, dest)
	// Generation: ~Scale quadrant draws of a few ops per edge.
	p.Compute(float64(ehi-elo) * float64(params.Scale) * 6 * cfg.CPUOpNs)

	recv := g.AlltoallvInt64(p, send)
	csr := BuildCSR(lo, hi, recv, dedup)

	// Construction: counting sort passes stream the pair list twice, and
	// per-row sorting costs ~m log(avg degree) comparisons.
	var words int
	for _, r := range recv {
		words += len(r)
	}
	m := float64(words / 2)
	logd := math.Log2(1 + m/math.Max(1, float64(hi-lo)))
	p.Compute(m*16/cfg.MemBWPerSocket + m*logd*4*cfg.CPUOpNs)
	return csr
}

// routeEdges generates edges [elo, ehi) in one batch and returns np send
// vectors of (source, neighbour) pairs: (u, v) goes to dest(u, v) and
// (v, u) to dest(v, u), in generation order; self-loops are dropped. A
// counting pass sizes every vector, and all are cut from one flat
// buffer with their capacity capped at their length, so none grows.
func routeEdges(params rmat.Params, elo, ehi int64, np int, dest func(u, v int64) int) [][]int64 {
	edges := params.Edges(nil, elo, ehi)
	counts := make([]int, np)
	total := 0
	for k := 0; k < len(edges); k += 2 {
		u, v := edges[k], edges[k+1]
		if u == v {
			continue
		}
		counts[dest(u, v)] += 2
		counts[dest(v, u)] += 2
		total += 4
	}
	flat := make([]int64, total)
	send := make([][]int64, np)
	off := 0
	for d, c := range counts {
		send[d] = flat[off : off : off+c]
		off += c
	}
	for k := 0; k < len(edges); k += 2 {
		u, v := edges[k], edges[k+1]
		if u == v {
			continue
		}
		du, dv := dest(u, v), dest(v, u)
		send[du] = append(send[du], u, v)
		send[dv] = append(send[dv], v, u)
	}
	return send
}
