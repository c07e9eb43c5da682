package main

import (
	"fmt"
	"io"
	"runtime"
	"strconv"
	"strings"
	"time"

	"numabfs/internal/machine"
	"numabfs/internal/stats"
	"numabfs/internal/trace"
	"numabfs/internal/wire"
)

// bench runs a workload's ops and checks each output: the first run of
// an op is validated against the Graph500 rules, every later run of it
// must reproduce the validated trees and virtual results bit for bit.
type bench struct {
	eng    engine
	rep    *report
	tr     *tracer
	first  []opResult
	hash   []uint64
	seen   []bool
	hostNs [][]float64 // per op, one sample per successful run
	all    []float64   // every successful op's host ns, in run order
	valNs  []float64   // host ns of each Graph500 validation
	// memOn records each op's heap allocations (traced pass only).
	memOn           bool
	allocs, kbAlloc []float64
}

func newBench(eng engine, rep *report, tr *tracer) *bench {
	n := eng.ops()
	return &bench{
		eng: eng, rep: rep, tr: tr,
		first: make([]opResult, n), hash: make([]uint64, n),
		seen: make([]bool, n), hostNs: make([][]float64, n),
	}
}

// op runs op i once and returns its host ns (0 when it failed).
func (s *bench) op(i int) float64 {
	s.rep.attempted++
	var m0, m1 runtime.MemStats
	if s.memOn {
		runtime.ReadMemStats(&m0)
	}
	var res opResult
	sp := s.tr.begin(s.eng.layer()+".op", i)
	t0 := time.Now()
	err := catch(func() { res = s.eng.run(i) })
	host := float64(time.Since(t0).Nanoseconds())
	s.tr.end(sp)
	if s.memOn {
		runtime.ReadMemStats(&m1)
		s.allocs = append(s.allocs, float64(m1.Mallocs-m0.Mallocs))
		s.kbAlloc = append(s.kbAlloc, float64(m1.TotalAlloc-m0.TotalAlloc)/1e3)
	}
	if err == nil {
		err = s.check(i, res)
	}
	// Collect the checker's garbage (assembled trees, validator state)
	// now, so that no timed op pays for it.
	runtime.GC()
	if err != nil {
		s.rep.failed++
		s.rep.fail(fmt.Errorf("op %d: %w", i, err))
		return 0
	}
	s.hostNs[i] = append(s.hostNs[i], host)
	s.all = append(s.all, host)
	return host
}

func (s *bench) check(i int, res opResult) error {
	if !s.seen[i] {
		sp := s.tr.begin("graph500.validate", i)
		t0 := time.Now()
		err := catch(func() {
			if err := s.eng.validate(i); err != nil {
				panic(err)
			}
		})
		s.valNs = append(s.valNs, float64(time.Since(t0).Nanoseconds()))
		s.tr.end(sp)
		if err != nil {
			return err
		}
		if be, ok := s.eng.(*batchEngine); ok {
			if err := be.checkServed(i, res); err != nil {
				return err
			}
		}
		s.first[i], s.hash[i], s.seen[i] = res, s.eng.treeHash(i), true
		return nil
	}
	f := s.first[i]
	if res.timeNs != f.timeNs || res.edges != f.edges || res.commBytes != f.commBytes || s.eng.treeHash(i) != s.hash[i] {
		return fmt.Errorf("repeat differs from the validated first run (virtual %v vs %v ns)", res.timeNs, f.timeNs)
	}
	return nil
}

// pass runs every op once and returns the summed host ns of the
// successful ones.
func (s *bench) pass() float64 {
	var sum float64
	for i := 0; i < s.eng.ops(); i++ {
		sum += s.op(i)
	}
	return sum
}

// unvalidated counts the ops that never produced a validated output.
func (s *bench) unvalidated() int {
	n := 0
	for _, ok := range s.seen {
		if !ok {
			n++
		}
	}
	return n
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return stats.Mean(xs)
}

// runWorkload runs one workload on one seed. Untraced, it builds the
// graph w.setups times cold, then runs passes over the op list until
// seconds have passed and minOps ops ran.
// Traced, it builds once, runs the op list once untraced and once traced
// (spans, heap counters, CPU profile), then probes each layer.
func runWorkload(w workload, seed uint64, seconds float64, traced bool, log io.Writer) *report {
	rep := &report{correct: true, metrics: map[string]metric{}, log: log}
	in := w.inputs(seed)
	tr := newTracer(traced)
	rep.spans = tr
	var prof profiler
	profiled := func(f func()) {
		if traced {
			if err := prof.start(); err != nil {
				rep.fail(err)
			} else {
				defer prof.stop()
			}
		}
		f()
	}

	// Kernel 1, cold: no graph cache, so every build generates the R-MAT
	// edges and constructs the distributed CSR.
	setups := w.setups
	if traced {
		setups = 1
	}
	var eng engine
	var setupS []float64
	for k := 0; k < setups; k++ {
		eng = nil
		runtime.GC()
		var err error
		profiled(func() {
			sp := tr.begin("kernel1", -1)
			t0 := time.Now()
			if perr := catch(func() { eng, err = w.build(in, tr) }); perr != nil {
				err = perr
			}
			setupS = append(setupS, elapsed(t0))
			tr.end(sp)
		})
		if err != nil {
			rep.attempted++
			rep.failed++
			rep.fail(fmt.Errorf("setup: %w", err))
			return rep
		}
	}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	heapMB := float64(ms.HeapAlloc) / 1e6

	var v virtual
	if be, ok := eng.(*batchEngine); ok {
		var err error
		var att, failed int
		profiled(func() {
			sp := tr.begin("kernel2.ladder", -1)
			v, att, failed, err = w.serveLadder(be, in, tr)
			tr.end(sp)
		})
		rep.attempted += att
		rep.failed += failed
		if err != nil {
			rep.fail(err)
			return rep
		}
	}

	s := newBench(eng, rep, tr)
	t0 := time.Now()
	untracedNs := s.pass()
	if n := s.unvalidated(); n > 0 {
		rep.fail(fmt.Errorf("%d of %d ops never succeeded", n, eng.ops()))
		return rep
	}
	ref := s.first
	if be, ok := eng.(*batchEngine); ok {
		ref = s.first[:be.ref]
	} else {
		v = w.rootVirtual(s.first, in.streamSeed)
	}
	v.tepsHmean = tepsHmean(ref)
	rep.record = virtualRecord(v, s)

	if !traced {
		// Whole passes only, so every op weighs the same in the
		// percentiles however many passes the machine's speed allows.
		for elapsed(t0) < seconds || len(s.all) < minOps {
			s.pass()
			if rep.attempted > 100*minOps && len(s.all) < minOps {
				break // nearly every op fails; stop rather than spin
			}
		}
		endToEnd(rep, w, s, v, setupS, heapMB)
		return rep
	}

	s.memOn = true
	var tracedNs float64
	profiled(func() {
		sp := tr.begin("kernel2.traced-pass", -1)
		tracedNs = s.pass()
		tr.end(sp)
	})
	perLayer(rep, w, in, s, v, &prof, tracedNs/untracedNs-1, tr)
	return rep
}

// virtualRecord renders every virtual result of the run exactly.
func virtualRecord(v virtual, s *bench) string {
	var b strings.Builder
	f := func(x float64) string { return strconv.FormatFloat(x, 'g', -1, 64) }
	fmt.Fprintf(&b, "teps_hmean %s\nlat_p50 %s\nlat_p95 %s\nmax_qps %s\n",
		f(v.tepsHmean), f(v.latP50Ns), f(v.latP95Ns), f(v.maxQPS))
	for i, r := range s.first {
		fmt.Fprintf(&b, "op %d time %s edges %d comm %d raw %d msgs %d tree %x\n",
			i, f(r.timeNs), r.edges, r.commBytes, r.rawCommBytes, r.msgs, s.hash[i])
	}
	return b.String()
}

// endToEnd sets the end-to-end metrics of an untraced run.
func endToEnd(rep *report, w workload, s *bench, v virtual, setupS []float64, heapMB float64) {
	setup := median(setupS)
	// Kernel 2 host time: each op's median over its runs, summed over
	// the op list — one Graph500 pass (or one served stream) at steady
	// state, validation excluded.
	var k2, edges float64
	for i, xs := range s.hostNs {
		k2 += median(xs) / 1e9
		edges += float64(s.first[i].edges)
	}
	rep.set("setup_s", setup, "s")
	rep.set("wall_s", setup+k2, "s")
	rep.set("host_teps", edges/k2, "edges/s")
	rep.set("op_host_ms_p50", stats.Percentile(s.all, 50)/1e6, "ms")
	rep.set("op_host_ms_p90", stats.Percentile(s.all, 90)/1e6, "ms")
	rep.set("heap_mb", heapMB, "MB")
	rep.set("virt_teps_hmean", v.tepsHmean, "edges/s")
	rep.set("virt_latency_ms_p50", v.latP50Ns/1e6, "ms")
	rep.set("virt_latency_ms_p95", v.latP95Ns/1e6, "ms")
	rep.set("virt_max_qps_slo", v.maxQPS, "1/s")
	fmt.Fprintf(rep.log, "%s: %d ops timed (%d distinct), %d setups; SLO limit %g ms at p95\n",
		w.name, len(s.all), len(s.hostNs), len(setupS), w.sloNs/1e6)
}

// frontierShape returns the mean share of frontier bits set at the
// levels that allgather the frontier (bottom-up levels; all levels when
// there are none) — the density the wire, bitmap and collective probes
// use — and the mean number of vertices a level discovers.
func frontierShape(first []opResult, n int64, laneWords bool) (density, levelNF float64) {
	bits := float64(n)
	if laneWords {
		bits *= 64
	}
	var bu, all, nf []float64
	for _, r := range first {
		for _, ls := range r.levelStats {
			d := float64(ls.NF) / bits
			all = append(all, d)
			nf = append(nf, float64(ls.NF))
			if ls.BottomUp {
				bu = append(bu, d)
			}
		}
	}
	density = mean(bu)
	if len(bu) == 0 {
		density = mean(all)
	}
	if density <= 0 {
		density = 1.0 / 64
	}
	return density, mean(nf)
}

// perLayer sets the per-layer metrics of a traced run.
func perLayer(rep *report, w workload, in inputs, s *bench, v virtual, prof *profiler, overhead float64, tr *tracer) {
	cfg := w.machineFor()
	laneWords := s.eng.layer() == "msbfs"
	shape := probeShape{
		cfg: cfg, pl: machine.PlacementFor(cfg, policy), params: in.params,
		laneWords: laneWords, seed: in.streamSeed,
	}
	shape.density, shape.levelNF = frontierShape(s.first, in.params.NumVertices(), laneWords)
	switch w.name {
	case "cluster-1d":
		shape.variant = "par"
	case "serve-msbfs":
		shape.variant = "par-comp"
	default:
		shape.variant = "grid-comp"
	}
	probe := func(name string, f func()) {
		sp := tr.begin("probe."+name, -1)
		f()
		tr.end(sp)
	}

	probe("rmat.Edges", func() { rep.set("rmat.edge_ns", probeRmat(shape), "ns") })
	probe("graph.BuildDistributed", func() {
		secs, mb, allocs, csr := probeBuild(shape)
		rep.set("graph.build_s", secs, "s")
		rep.set("graph.build_mb_alloc", mb, "MB")
		rep.set("graph.build_allocs", allocs, "count")
		rep.set("graph.csr_mb", csr, "MB")
	})
	probe("mpi", func() {
		sr, bar := probeMPI(shape)
		rep.set("mpi.sendrecv_ns", sr, "ns")
		rep.set("mpi.barrier_us", bar, "us")
	})
	probe("collective", func() {
		agMs, agA, a2aMs, a2aA := probeCollectives(shape)
		rep.set("collective.allgather_ms", agMs, "ms")
		rep.set("collective.allgather_allocs", agA, "count")
		rep.set("collective.alltoallv_ms", a2aMs, "ms")
		rep.set("collective.alltoallv_allocs", a2aA, "count")
	})
	probe("wire.Codec", func() {
		enc, dec := probeWire(shape)
		rep.set("wire.encode_ns_per_word", enc, "ns")
		rep.set("wire.decode_ns_per_word", dec, "ns")
	})
	probe("bitmap", func() {
		scan, sum, lanes := probeBitmap(shape)
		rep.set("bitmap.scan_ns_per_word", scan, "ns")
		rep.set("bitmap.summary_ns_per_word", sum, "ns")
		rep.set("bitmap.lanecount_ns_per_word", lanes, "ns")
	})

	// Per-op counters from the validated first runs.
	var ws wire.Stats
	var msgs, inter, retx, acks, xkb []float64
	for _, r := range s.first {
		ws.Add(r.wire)
		msgs = append(msgs, float64(r.msgs))
		inter = append(inter, float64(r.interMsgs))
		retx = append(retx, float64(r.xport.Retransmits))
		acks = append(acks, float64(r.xport.Acks))
		xkb = append(xkb, float64(r.xport.OverheadBytes)/1e3)
	}
	rep.set("mpi.msgs_per_op", mean(msgs), "count")
	rep.set("mpi.inter_msgs_per_op", mean(inter), "count")
	ratio := 0.0
	if ws.RawBytes > 0 {
		ratio = ws.Ratio()
	}
	rep.set("wire.ratio", ratio, "ratio")
	rep.set("simnet.retransmits_per_op", mean(retx), "count")
	rep.set("simnet.acks_per_op", mean(acks), "count")
	rep.set("simnet.xport_kb_per_op", mean(xkb), "kB")
	rep.set("graph500.validate_ms", mean(s.valNs)/1e6, "ms")

	for _, layer := range []string{"bfs", "bfs2d", "msbfs"} {
		var m engineMetrics
		if layer == s.eng.layer() {
			m = phases(s.first)
			m.allocs, m.kb = mean(s.allocs), mean(s.kbAlloc)
		}
		m.set(rep, layer)
	}
	rep.set("msbfs.rounds_per_query", v.roundsPerQry, "count")
	rep.set("msbfs.batch_fill", v.batchFill, "lanes")
	pct := func(xs []float64, p float64) float64 {
		if len(xs) == 0 {
			return 0
		}
		return stats.Percentile(xs, p) / 1e6
	}
	rep.set("queryserv.wait_ms_p50", pct(v.waitNs, 50), "ms")
	rep.set("queryserv.wait_ms_p95", pct(v.waitNs, 95), "ms")
	rep.set("queryserv.service_ms_p50", pct(v.serviceNs, 50), "ms")
	rep.set("queryserv.service_ms_p95", pct(v.serviceNs, 95), "ms")

	shares, err := prof.shares()
	if err != nil {
		rep.fail(err)
	}
	for _, m := range hostModules {
		rep.set("host_share."+m, shares[m], "frac")
	}
	rep.set("trace_overhead_frac", overhead, "frac")
	rep.set("failed_frac", float64(rep.failed)/float64(rep.attempted), "frac")
}

// engineMetrics are one engine's per-op means.
type engineMetrics struct {
	ph                [trace.NumPhases]float64
	levels, buLevels  float64
	commMB, rawCommMB float64
	allocs, kb        float64
}

func phases(first []opResult) engineMetrics {
	var m engineMetrics
	k := float64(len(first))
	for _, r := range first {
		for p := range m.ph {
			m.ph[p] += r.bd.Ns[p] / 1e6 / k
		}
		m.levels += float64(r.levels) / k
		m.buLevels += float64(r.bd.BULevels) / k
		m.commMB += float64(r.commBytes) / 1e6 / k
		m.rawCommMB += float64(r.rawCommBytes) / 1e6 / k
	}
	return m
}

func (m engineMetrics) set(rep *report, layer string) {
	for _, p := range []struct {
		name string
		ph   trace.Phase
	}{
		{"td_comp_ms", trace.TDComp}, {"td_comm_ms", trace.TDComm},
		{"bu_comp_ms", trace.BUComp}, {"bu_comm_ms", trace.BUComm},
		{"switch_ms", trace.Switch}, {"stall_ms", trace.Stall},
		{"xport_ms", trace.Xport},
	} {
		rep.set(layer+"."+p.name, m.ph[p.ph], "ms")
	}
	rep.set(layer+".levels", m.levels, "count")
	rep.set(layer+".bu_levels", m.buLevels, "count")
	rep.set(layer+".comm_mb_per_op", m.commMB, "MB")
	rep.set(layer+".raw_comm_mb_per_op", m.rawCommMB, "MB")
	rep.set(layer+".op_allocs", m.allocs, "count")
	rep.set(layer+".op_kb_alloc", m.kb, "kB")
}
