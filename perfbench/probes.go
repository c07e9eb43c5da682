package main

import (
	"runtime"
	"sort"
	"time"

	"numabfs/internal/bitmap"
	"numabfs/internal/collective"
	"numabfs/internal/graph"
	"numabfs/internal/machine"
	"numabfs/internal/mpi"
	"numabfs/internal/omp"
	"numabfs/internal/rmat"
	"numabfs/internal/wire"
	"numabfs/internal/xrand"
)

// The probes time calls into one layer's public functions from outside,
// at the workload's own shape: its machine, rank count, graph and the
// frontier density its ops measured. Each reports the median of three
// repetitions.

const probeReps = 3

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// repeat runs f probeReps times and returns the median host seconds and
// the median heap allocations (count and bytes) of one run of f.
func repeat(f func()) (secs, allocs, bytes float64) {
	var ts, as, bs []float64
	var m0, m1 runtime.MemStats
	for k := 0; k < probeReps; k++ {
		runtime.GC()
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		f()
		ts = append(ts, time.Since(t0).Seconds())
		runtime.ReadMemStats(&m1)
		as = append(as, float64(m1.Mallocs-m0.Mallocs))
		bs = append(bs, float64(m1.TotalAlloc-m0.TotalAlloc))
	}
	return median(ts), median(as), median(bs)
}

// randomWords fills n words whose bits are set with probability d.
func randomWords(n int64, d float64, seed uint64) []uint64 {
	rng := xrand.NewXoshiro256(seed)
	out := make([]uint64, n)
	for i := range out {
		var w uint64
		for b := 0; b < 64; b++ {
			if rng.Float64() < d {
				w |= 1 << uint(b)
			}
		}
		out[i] = w
	}
	return out
}

type probeShape struct {
	cfg     machine.Config
	pl      machine.Placement
	params  rmat.Params
	density float64 // measured frontier density, in bits set per bit
	// levelNF is the mean number of vertices a level discovers; the
	// alltoallv probe sends them as (vertex, parent) pairs.
	levelNF float64
	// variant names the collectives the workload's engine calls:
	// "par" (1-D ParallelAllgather, raw AlltoallvInt64), "par-comp"
	// (ParallelAllgatherCompressed over lane planes, raw AlltoallvInt64)
	// or "grid-comp" (2-D column AllgatherRingCompressed, row
	// AlltoallvInt64Compressed).
	variant string
	// laneWords: the engine's frontier holds one 64-bit lane word per
	// vertex (msbfs) rather than one bit.
	laneWords bool
	seed      uint64
}

func (s probeShape) frontierWords() int64 {
	n := s.params.NumVertices()
	if s.laneWords {
		return n
	}
	return (n + 63) / 64
}

func (s probeShape) allRanks() []int {
	ranks := make([]int, s.pl.Procs(s.cfg))
	for i := range ranks {
		ranks[i] = i
	}
	return ranks
}

// probeRmat: host ns per generated edge (rmat.Params.Edges over the
// first million edges of the graph, or all of a smaller one).
func probeRmat(s probeShape) float64 {
	n := s.params.NumEdges()
	if n > 1<<20 {
		n = 1 << 20
	}
	buf := make([]int64, 0, 2*n)
	secs, _, _ := repeat(func() { buf = s.params.Edges(buf[:0], 0, n) })
	return secs * 1e9 / float64(n)
}

// probeBuild: graph.BuildDistributed in a fresh world — host seconds,
// MB and objects allocated, and the MB of the CSRs it builds.
func probeBuild(s probeShape) (secs, mbAlloc, allocs, csrMB float64) {
	var csrs []*graph.CSR
	secs, allocs, bytes := repeat(func() {
		w := mpi.NewWorld(s.cfg, s.pl)
		g := collective.NewGroup(w, s.allRanks())
		part := graph.NewPartition(s.params.NumVertices(), w.NumProcs())
		csrs = make([]*graph.CSR, w.NumProcs())
		w.Run(func(p *mpi.Proc) {
			csrs[p.Rank()] = graph.BuildDistributed(p, g, part, s.params, true)
		})
	})
	var csrBytes int64
	for _, c := range csrs {
		csrBytes += c.BytesApprox()
	}
	return secs, bytes / 1e6, allocs, float64(csrBytes) / 1e6
}

// probeMPI: host ns per inter-node Send/Recv (rank 0 to the first rank
// of node 1) and host µs per global Barrier.
func probeMPI(s probeShape) (sendRecvNs, barrierUs float64) {
	const msgs, barriers = 2000, 100
	w := mpi.NewWorld(s.cfg, s.pl)
	peer := s.pl.ProcsPerNode
	secs, _, _ := repeat(func() {
		w.Run(func(p *mpi.Proc) {
			switch p.Rank() {
			case 0:
				for k := 0; k < msgs; k++ {
					p.Send(peer, 1, 64, nil, 1)
				}
			case peer:
				for k := 0; k < msgs; k++ {
					p.Recv(0, 1)
				}
			}
		})
	})
	sendRecvNs = secs * 1e9 / msgs
	secs, _, _ = repeat(func() {
		w.Run(func(p *mpi.Proc) {
			for k := 0; k < barriers; k++ {
				p.Barrier()
			}
		})
	})
	return sendRecvNs, secs * 1e6 / barriers
}

// probeCollectives: host ms and allocations per call of the workload's
// allgather and alltoallv variants. The allgather carries a frontier at
// the measured density; the alltoallv sends each peer its share of one
// level's newly discovered vertices as (vertex, parent) pairs. A barrier
// follows each call, as the engines' level loops separate calls with an
// allreduce: a codec's encoded payload stays in use until every peer has
// decoded it.
func probeCollectives(s probeShape) (agMs, agAllocs, a2aMs, a2aAllocs float64) {
	const calls = 10
	w := mpi.NewWorld(s.cfg, s.pl)
	np := w.NumProcs()
	team := omp.TeamFor(s.cfg, s.pl)
	n := s.params.NumVertices()
	words := randomWords(s.frontierWords(), s.density, s.seed)

	// Communicators and per-rank payloads, built outside the timing.
	var (
		nc        *collective.NodeComm
		groupOf   func(rank int) (ag, a2a *collective.Group)
		agLayout  collective.Layout
		a2aGroupN int
	)
	switch s.variant {
	case "grid-comp":
		r, c := gridShape(np)
		cols, rows := make([]*collective.Group, c), make([]*collective.Group, r)
		for j := 0; j < c; j++ {
			var ranks []int
			for i := 0; i < r; i++ {
				ranks = append(ranks, j*r+i)
			}
			cols[j] = collective.NewGroup(w, ranks)
		}
		for i := 0; i < r; i++ {
			var ranks []int
			for j := 0; j < c; j++ {
				ranks = append(ranks, j*r+i)
			}
			rows[i] = collective.NewGroup(w, ranks)
		}
		groupOf = func(rank int) (*collective.Group, *collective.Group) {
			return cols[rank/r], rows[rank%r]
		}
		agLayout = collective.EvenLayout((n/int64(c)+63)/64, r)
		a2aGroupN = c
	default:
		nc = collective.NewNodeComm(w)
		all := collective.NewGroup(w, s.allRanks())
		groupOf = func(int) (*collective.Group, *collective.Group) { return nil, all }
		part := graph.NewPartition(n, np)
		if s.laneWords {
			agLayout = collective.SegLayout(part.Offsets())
		} else {
			agLayout = collective.SegLayout(part.WordOffsets())
		}
		a2aGroupN = np
	}
	perPeer := int(2 * s.levelNF / float64(np) / float64(a2aGroupN))
	if perPeer < 2 {
		perPeer = 2
	}
	sends := make([][][]int64, np)
	rng := xrand.NewXoshiro256(s.seed + 1)
	for rank := range sends {
		sends[rank] = make([][]int64, a2aGroupN)
		for d := range sends[rank] {
			lst := make([]int64, perPeer)
			for k := range lst {
				lst[k] = int64(rng.Uint64n(uint64(n)))
			}
			sort.Slice(lst, func(a, b int) bool { return lst[a] < lst[b] })
			sends[rank][d] = lst
		}
	}
	segOf := func(pos int) []uint64 {
		lo := agLayout.Displs[pos] % int64(len(words))
		hi := lo + agLayout.Counts[pos]
		if hi > int64(len(words)) {
			return make([]uint64, agLayout.Counts[pos])
		}
		return append([]uint64(nil), words[lo:hi]...)
	}
	// Per-rank buffers and codecs, so the timed runs allocate only what
	// the collectives do.
	segs := make([][]uint64, np)
	codecs := make([]*wire.Codec, np)
	for rank := range segs {
		loc := machine.NodeShared
		if s.variant == "grid-comp" {
			col, _ := groupOf(rank)
			pos := col.Pos(rank)
			segs[rank] = make([]uint64, agLayout.TotalWords())
			copy(segs[rank][agLayout.Displs[pos]:], segOf(pos))
			loc = s.pl.PrivateLoc
		} else {
			segs[rank] = segOf(rank)
		}
		codecs[rank] = &wire.Codec{Team: team, Loc: loc}
	}
	shared := func(p *mpi.Proc) []uint64 {
		if nc == nil {
			return nil
		}
		return p.SharedWords("probe-ag", agLayout.TotalWords())
	}
	// The allocations of starting the ranks are subtracted below.
	_, runAllocs, _ := repeat(func() { w.Run(func(p *mpi.Proc) { shared(p) }) })

	agSecs, agA, _ := repeat(func() {
		w.Run(func(p *mpi.Proc) {
			seg, codec, buf := segs[p.Rank()], codecs[p.Rank()], shared(p)
			col, _ := groupOf(p.Rank())
			for k := 0; k < calls; k++ {
				switch s.variant {
				case "par":
					nc.ParallelAllgather(p, buf, seg, agLayout)
				case "par-comp":
					nc.ParallelAllgatherCompressed(p, buf, seg, agLayout, codec)
				case "grid-comp":
					col.AllgatherRingCompressed(p, seg, agLayout, codec)
				}
				p.Barrier()
			}
		})
	})
	a2aSecs, a2aA, _ := repeat(func() {
		w.Run(func(p *mpi.Proc) {
			_, g := groupOf(p.Rank())
			send, codec := sends[p.Rank()], codecs[p.Rank()]
			var out [][]int64
			for k := 0; k < calls; k++ {
				if s.variant == "grid-comp" {
					out = g.AlltoallvInt64Compressed(p, send, out, codec)
				} else {
					g.AlltoallvInt64(p, send)
				}
				p.Barrier()
			}
		})
	})
	return agSecs * 1e3 / calls, (agA - runAllocs) / calls, a2aSecs * 1e3 / calls, (a2aA - runAllocs) / calls
}

// gridShape mirrors bfs2d.DefaultGrid for a power-of-two rank count.
func gridShape(np int) (r, c int) {
	log := 0
	for v := np; v > 1; v >>= 1 {
		log++
	}
	r = 1 << uint(log/2)
	return r, np / r
}

// probeWire: host ns per raw word to encode and decode a frontier
// segment at the measured density (wire.Codec.Encode / Decode).
func probeWire(s probeShape) (encNs, decNs float64) {
	const reps = 50
	words := randomWords(s.frontierWords(), s.density, s.seed)
	codec := &wire.Codec{Team: omp.TeamFor(s.cfg, s.pl), Loc: machine.NodeShared}
	dst := make([]uint64, len(words))
	var pl wire.Payload
	encSecs, _, _ := repeat(func() {
		for k := 0; k < reps; k++ {
			pl, _ = codec.Encode(words)
		}
	})
	decSecs, _, _ := repeat(func() {
		for k := 0; k < reps; k++ {
			codec.Decode(dst, pl)
		}
	})
	per := float64(reps * len(words))
	return encSecs * 1e9 / per, decSecs * 1e9 / per
}

// probeBitmap: host ns per word of AppendSetBits, Summary.Rebuild and
// LanePlane.LaneCounts over frontier-sized structures at the measured
// density.
func probeBitmap(s probeShape) (scanNs, summaryNs, laneNs float64) {
	const reps = 20
	n := s.params.NumVertices()
	base := bitmap.FromWords(randomWords((n+63)/64, s.density, s.seed), n)
	sum := bitmap.NewSummary(n, 64)
	dst := make([]int64, 0, n)
	bitWords := float64(reps * len(base.Words()))
	scan, _, _ := repeat(func() {
		for k := 0; k < reps; k++ {
			dst = base.AppendSetBits(dst[:0], 0, n)
		}
	})
	rebuild, _, _ := repeat(func() {
		for k := 0; k < reps; k++ {
			sum.Rebuild(base)
		}
	})
	plane := bitmap.PlaneFromWords(randomWords(n, s.density, s.seed+2), n)
	var counts [bitmap.LaneBits]int64
	lanes, _, _ := repeat(func() {
		for k := 0; k < reps; k++ {
			plane.LaneCounts(&counts, 0, n)
		}
	})
	return scan * 1e9 / bitWords, rebuild * 1e9 / bitWords, lanes * 1e9 / float64(reps*n)
}
