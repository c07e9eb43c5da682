// Command perfbench is the repository's benchmark. It runs one workload
// for a given seed through the engines' public entry points, checks
// every output, and prints the metrics named in BENCHMARK.json as the
// last line of its output:
//
//	go run . --workload cluster-1d --seed 1 --seconds 20 --trace 0
//
// --trace 0 reports the end-to-end metrics of an untraced run; --trace 1
// runs the same workload with host spans, a CPU profile and per-layer
// probes, and reports the per-layer metrics. perfbench/run.py builds and
// runs it from the root of a checkout.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

func main() {
	name := flag.String("workload", "", "workload name")
	seed := flag.Uint64("seed", 1, "seed every input is derived from")
	seconds := flag.Float64("seconds", 20, "host seconds of timed ops per run")
	traced := flag.Int("trace", 0, "1 for the traced per-layer run")
	stateDir := flag.String("state-dir", ".bench_build/perfbench", "directory for span dumps and virtual-metric records")
	flag.Parse()
	w, ok := workloadByName(*name)
	if !ok || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q or --trace %d\n", *name, *traced)
		os.Exit(2)
	}
	if os.Getenv("GOMAXPROCS") == "" && runtime.NumCPU() > 2 {
		runtime.GOMAXPROCS(2)
	}
	if err := os.MkdirAll(*stateDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	rep := runWorkload(w, *seed, *seconds, *traced == 1, os.Stdout)
	if rep.spans != nil {
		path := filepath.Join(*stateDir, fmt.Sprintf("spans-%s-%d.json", w.name, *seed))
		if err := rep.spans.write(path); err != nil {
			rep.fail(fmt.Errorf("writing spans: %w", err))
		}
	}
	if err := checkRecord(*stateDir, w.name, *seed, rep.record); err != nil {
		rep.fail(err)
	}
	line, err := rep.json()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(line)
	if !rep.correct {
		os.Exit(1)
	}
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is one run's result.
type report struct {
	correct   bool
	attempted int
	failed    int
	metrics   map[string]metric
	// record is the run's virtual metrics and per-op virtual results,
	// which every run of one build on one seed must reproduce exactly.
	record string
	spans  *tracer
	log    io.Writer
}

func (r *report) set(name string, v float64, unit string) {
	r.metrics[name] = metric{Value: v, Unit: unit}
}

func (r *report) fail(err error) {
	r.correct = false
	fmt.Fprintln(r.log, "FAIL:", err)
}

func (r *report) json() (string, error) {
	for name, m := range r.metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			r.fail(fmt.Errorf("metric %s is %v", name, m.Value))
			r.metrics[name] = metric{Value: 0, Unit: m.Unit}
		}
	}
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.correct, r.attempted, r.failed, r.metrics}
	if out.Attempted < 1 {
		out.Attempted = 1
		out.Failed = 1
		out.Correct = false
	}
	b, err := json.Marshal(out)
	return string(b), err
}

// checkRecord fails when an earlier run of this same binary on the same
// workload and seed recorded different virtual results: the simulator is
// deterministic, so a difference is a bug, not noise.
func checkRecord(dir, workload string, seed uint64, record string) error {
	if record == "" {
		return nil
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	bin, err := os.ReadFile(exe)
	if err != nil {
		return err
	}
	sum := sha256.Sum256(bin)
	path := filepath.Join(dir, fmt.Sprintf("virt-%s-%s-%d.txt", hex.EncodeToString(sum[:8]), workload, seed))
	prev, err := os.ReadFile(path)
	switch {
	case err == nil:
		if string(prev) != record {
			return fmt.Errorf("virtual results differ from an earlier run of this build (%s)", path)
		}
		return nil
	case errors.Is(err, os.ErrNotExist):
		return os.WriteFile(path, []byte(record), 0o644)
	default:
		return err
	}
}

// catch runs f and turns a panic into an error, so an engine failure is
// counted instead of ending the run.
func catch(f func()) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v", p)
		}
	}()
	f()
	return nil
}

func elapsed(t0 time.Time) float64 { return time.Since(t0).Seconds() }
