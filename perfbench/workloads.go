package main

import (
	"fmt"
	"math"
	"sort"

	"numabfs/internal/bfs"
	"numabfs/internal/bfs2d"
	"numabfs/internal/fault"
	"numabfs/internal/graph500"
	"numabfs/internal/machine"
	"numabfs/internal/queryserv"
	"numabfs/internal/rmat"
	"numabfs/internal/stats"
	"numabfs/internal/xrand"
)

// workload is one fixed benchmark shape. Every input is derived from the
// run's seed (inputs); the rates and latency limits are absolute virtual
// quantities fixed here once, never re-calibrated against the program
// under test.
type workload struct {
	name  string
	scale int
	nodes int
	// setups is the number of cold kernel-1 builds per untraced run;
	// setup_s is their median.
	setups int
	// roots is the op list of a root workload (Graph500 roots).
	roots int
	// queries is the length of the open-loop query stream per offered
	// rate; refQPS the rate virt_latency_* is reported at; sloNs the p95
	// latency limit virt_max_qps_slo is searched against.
	queries int
	refQPS  float64
	sloNs   float64
	// rates is serve-msbfs's ladder of offered rates (refQPS among them).
	rates []float64
}

// minOps is the least number of timed ops per run, so that
// op_host_ms_p90 has at least ten samples beyond it.
const minOps = 100

// fillTimeoutNs is serve-msbfs's admission fill timeout: a batch
// launches when 64 queries wait or the oldest has waited this long.
const fillTimeoutNs = 1e6

var workloads = []workload{
	{
		name: "cluster-1d", scale: 16, nodes: 16, setups: 7,
		roots: 64, queries: 32768, refQPS: 5000, sloNs: 1e6,
	},
	{
		name: "serve-msbfs", scale: 16, nodes: 2, setups: 7,
		queries: 512, refQPS: 20000, sloNs: 3e6,
		rates: []float64{10000, 20000, 30000, 35000, 40000, 45000, 50000, 60000},
	},
	{
		name: "grid-2d-lossy", scale: 18, nodes: 2, setups: 5,
		roots: 64, queries: 32768, refQPS: 400, sloNs: 3e6,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// inputs are the generated inputs of one run, all drawn from --seed.
type inputs struct {
	params     rmat.Params // the R-MAT seed also fixes the Graph500 roots
	streamSeed uint64      // open-loop arrivals and their roots
	lossSeed   uint64      // grid-2d-lossy's loss plan
}

func derive(seed uint64, label uint64) uint64 {
	return xrand.NewSplitMix64(seed ^ label*0x9e3779b97f4a7c15).Uint64()
}

func (w workload) inputs(seed uint64) inputs {
	return inputs{
		params:     rmat.Graph500(w.scale).WithSeed(derive(seed, 1)),
		streamSeed: derive(seed, 2),
		lossSeed:   derive(seed, 3),
	}
}

// machineFor scales Table I to the run's graph the way the experiments
// do for scale 16 against the paper's 28, keeping the graph : cache
// ratio at every scale.
func (w workload) machineFor() machine.Config {
	cfg := machine.Scaled(w.scale, w.scale+12).WithNodes(w.nodes)
	cfg.WeakNode = -1
	return cfg
}

const policy = machine.PPN8Bind

// build runs kernel 1 (runner construction and Setup) through the
// engine's public entry points and returns the engine ready for its
// ops. serve-msbfs's op list is filled later by the query server.
func (w workload) build(in inputs, tr *tracer) (engine, error) {
	cfg := w.machineFor()
	switch w.name {
	case "cluster-1d":
		opts := bfs.DefaultOptions()
		opts.Opt = bfs.OptParAllgather
		sp := tr.begin("bfs.NewRunner", -1)
		r, err := bfs.NewRunner(cfg, policy, in.params, opts)
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		sp = tr.begin("bfs.Runner.Setup", -1)
		r.Setup()
		tr.end(sp)
		return &rootEngine1D{r: r, roots: in.params.Roots(w.roots, r.HasEdgeGlobal)}, nil
	case "serve-msbfs":
		opts := bfs.DefaultOptions()
		opts.Opt = bfs.OptCompressedAllgather
		sp := tr.begin("graph500.NewBatchRunner", -1)
		r, err := graph500.NewBatchRunner(graph500.Config{
			Machine: cfg, Policy: policy, Params: in.params, Opts: opts,
		})
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		return &batchEngine{r: r, laneHash: map[int64]uint64{}}, nil
	case "grid-2d-lossy":
		np := machine.PlacementFor(cfg, policy).Procs(cfg)
		sp := tr.begin("bfs2d.NewRunner", -1)
		r, err := bfs2d.NewRunner(cfg, policy, bfs2d.DefaultGrid(np), in.params)
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		r.Mode = bfs2d.ModeHybrid
		r.Compress = true
		sp = tr.begin("bfs2d.Runner.Setup", -1)
		r.Setup()
		tr.end(sp)
		if err := r.InjectFaults(fault.Lossy(in.lossSeed, 0.01)); err != nil {
			return nil, err
		}
		return &rootEngine2D{r: r, roots: in.params.Roots(w.roots, r.HasEdgeGlobal)}, nil
	}
	return nil, fmt.Errorf("unknown workload %q", w.name)
}

// virtual holds the end-to-end virtual metrics of a run.
type virtual struct {
	tepsHmean float64
	latP50Ns  float64
	latP95Ns  float64
	maxQPS    float64
	// serve-msbfs only, per query at refQPS: admission wait (launch -
	// arrive) and service (done - launch).
	waitNs       []float64
	serviceNs    []float64
	roundsPerQry float64
	batchFill    float64
}

// sloScore is the figure held against the latency limit: the p95
// latency, or the median latency of the last tenth of the stream when
// that is larger — a growing backlog shows there first.
func sloScore(lat []float64) float64 {
	tail := lat[len(lat)*9/10:]
	return math.Max(stats.Percentile(lat, 95), stats.Percentile(tail, 50))
}

// openLoop is a Poisson query stream over a root workload's op list:
// arrivals at unit rate (scaled by 1/qps at use, so every rate offers
// the same queries in the same order) and the op each query asks for.
type openLoop struct {
	unit []float64
	pick []int
}

func newOpenLoop(n, ops int, seed uint64) openLoop {
	rng := xrand.NewXoshiro256(seed)
	s := openLoop{unit: make([]float64, n), pick: make([]int, n)}
	t := 0.0
	for q := range s.unit {
		t += -math.Log(1 - rng.Float64())
		s.unit[q] = t
		s.pick[q] = int(rng.Uint64n(uint64(ops)))
	}
	return s
}

// latencies serves the stream first come first served, one root at a
// time, with each query taking its root's measured virtual time. Each
// latency is timed from the query's due time, so a stall counts against
// every query queued behind it.
func (s openLoop) latencies(svcNs []float64, qps float64) []float64 {
	lat := make([]float64, len(s.unit))
	free := 0.0
	for q, u := range s.unit {
		arrive := u * 1e9 / qps
		free = math.Max(arrive, free) + svcNs[s.pick[q]]
		lat[q] = free - arrive
	}
	return lat
}

// tepsHmean is the harmonic mean of each op's traversed edges per
// virtual second: Graph500's figure over roots, and over the batches
// served at the reference rate on serve-msbfs.
func tepsHmean(first []opResult) float64 {
	teps := make([]float64, len(first))
	for i, r := range first {
		teps[i] = float64(r.edges) / (r.timeNs / 1e9)
	}
	return stats.HarmonicMean(teps)
}

// rootVirtual computes a root workload's latency metrics from each
// root's virtual time (all roots succeeded).
func (w workload) rootVirtual(first []opResult, seed uint64) virtual {
	svc := make([]float64, len(first))
	for i, r := range first {
		svc[i] = r.timeNs
	}
	s := newOpenLoop(w.queries, len(first), seed)
	lat := s.latencies(svc, w.refQPS)
	v := virtual{
		latP50Ns: stats.Percentile(lat, 50),
		latP95Ns: stats.Percentile(lat, 95),
	}
	// The score only grows with the offered rate (the arrivals compress,
	// the service times do not change), so bisection finds the limit.
	ok := func(qps float64) bool {
		return sloScore(s.latencies(svc, qps)) <= w.sloNs
	}
	capacity := 1e9 / stats.Mean(svc)
	lo, hi := capacity/1e4, 2*capacity
	switch {
	case !ok(lo):
		v.maxQPS = lo
	case ok(hi):
		v.maxQPS = hi
	default:
		for k := 0; k < 60; k++ {
			mid := math.Sqrt(lo * hi)
			if ok(mid) {
				lo = mid
			} else {
				hi = mid
			}
		}
		v.maxQPS = lo
	}
	return v
}

// rung is one offered rate of serve-msbfs's ladder.
type rung struct {
	qps   float64
	score float64
}

// maxQPSFromLadder interpolates the rate at which the SLO score crosses
// the limit between the last passing rung and the first failing one.
// When the first rung already fails it scales that rung by how far it
// missed; when every rung passes it reports the top rung.
func maxQPSFromLadder(rungs []rung, limit float64) float64 {
	if rungs[0].score > limit {
		return rungs[0].qps * limit / rungs[0].score
	}
	for k := 1; k < len(rungs); k++ {
		a, b := rungs[k-1], rungs[k]
		if b.score > limit {
			return a.qps + (limit-a.score)/(b.score-a.score)*(b.qps-a.qps)
		}
	}
	return rungs[len(rungs)-1].qps
}

// serveLadder runs the query server over the rate ladder. The stream at
// every rate holds the same roots in the same order (PoissonWorkload
// scales one seeded stream by the rate), and arrivals are precomputed in
// virtual time, so the generator is never late. The batches of every
// rate, the reference rate's first, become the op list the host-time
// loop replays. failed counts queries that were never served.
func (w workload) serveLadder(e *batchEngine, in inputs, tr *tracer) (v virtual, attempted, failed int, err error) {
	n := in.params.NumVertices()
	po := queryserv.Policy{MaxBatch: 64, FillTimeoutNs: fillTimeoutNs}
	var rungs []rung
	for _, qps := range w.rates {
		qs := queryserv.PoissonWorkload(w.queries, qps, in.streamSeed, n, e.r.HasEdgeGlobal)
		attempted += len(qs)
		sp := tr.begin("queryserv.Serve", -1)
		var res *queryserv.Result
		perr := catch(func() { res, err = queryserv.Serve(e.r, po, qs) })
		tr.end(sp)
		if perr != nil {
			err = perr
		}
		if err != nil {
			return v, attempted, failed + len(qs), fmt.Errorf("serve at %g qps: %w", qps, err)
		}
		if len(res.Completed) != len(qs) {
			return v, attempted, failed + len(qs) - len(res.Completed),
				fmt.Errorf("serve at %g qps completed %d of %d queries", qps, len(res.Completed), len(qs))
		}
		lat := make([]float64, len(res.Completed))
		for i, c := range res.Completed {
			lat[i] = c.LatencyNs
		}
		rungs = append(rungs, rung{qps: qps, score: sloScore(lat)})
		batches := make([][]int64, len(res.Batches))
		for _, c := range res.Completed {
			batches[c.Batch] = append(batches[c.Batch], c.Root)
		}
		served := make([]float64, len(res.Batches))
		for b, bt := range res.Batches {
			served[b] = bt.DurationNs
		}
		if qps != w.refQPS {
			e.batches = append(e.batches, batches...)
			e.servedNs = append(e.servedNs, served...)
			continue
		}
		e.batches = append(batches, e.batches...)
		e.servedNs = append(served, e.servedNs...)
		e.ref = len(batches)
		for _, c := range res.Completed {
			v.waitNs = append(v.waitNs, c.LaunchNs-c.ArriveNs)
			v.serviceNs = append(v.serviceNs, c.DoneNs-c.LaunchNs)
		}
		v.latP50Ns = stats.Percentile(lat, 50)
		v.latP95Ns = stats.Percentile(lat, 95)
		v.roundsPerQry = float64(res.AllgatherRounds) / float64(len(res.Completed))
		v.batchFill = res.MeanBatchFill
	}
	if e.ref == 0 {
		return v, attempted, failed, fmt.Errorf("reference rate %g not on the ladder", w.refQPS)
	}
	sort.Slice(rungs, func(i, j int) bool { return rungs[i].qps < rungs[j].qps })
	v.maxQPS = maxQPSFromLadder(rungs, w.sloNs)
	return v, attempted, failed, nil
}
