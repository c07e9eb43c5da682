package main

import (
	"encoding/json"
	"io"
	"os"
	"regexp"
	"sort"
	"testing"
)

// tiny shrinks a workload to a smoke-test size: scale 10 (13 for the
// 128-rank cluster, whose engine needs 64 vertices per rank), a handful
// of roots and queries, one setup, and only the minimum of timed ops.
func tiny(w workload) workload {
	w.scale = 10
	if w.name == "cluster-1d" {
		w.scale = 13
	}
	w.setups = 1
	if w.roots > 0 {
		w.roots = 4
	}
	w.queries = 64
	return w
}

// benchmarkMetrics reads the end-to-end and per-layer metric names from
// BENCHMARK.json at the repository root.
func benchmarkMetrics(t *testing.T) (endToEnd, perLayer []string) {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var ours []string
	for _, w := range workloads {
		ours = append(ours, w.name)
	}
	sort.Strings(names)
	sort.Strings(ours)
	if !equal(names, ours) {
		t.Fatalf("BENCHMARK.json workloads %v, benchmark runs %v", names, ours)
	}
	for _, m := range spec.EndToEnd {
		endToEnd = append(endToEnd, m.Name)
	}
	for _, m := range spec.PerLayer {
		perLayer = append(perLayer, m.Name)
	}
	return endToEnd, perLayer
}

func equal(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

func TestSmoke(t *testing.T) {
	endToEnd, perLayer := benchmarkMetrics(t)
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			want := endToEnd
			if traced {
				want = perLayer
			}
			var records []string
			for run := 0; run < 2; run++ {
				rep := runWorkload(tiny(w), 7, 0, traced, io.Discard)
				if !rep.correct || rep.failed != 0 || rep.attempted < 1 {
					t.Fatalf("%s traced=%v: correct=%v attempted=%d failed=%d",
						w.name, traced, rep.correct, rep.attempted, rep.failed)
				}
				var got []string
				for name := range rep.metrics {
					if !metricName.MatchString(name) {
						t.Errorf("%s: metric name %q", w.name, name)
					}
					got = append(got, name)
				}
				sort.Strings(got)
				exp := append([]string(nil), want...)
				sort.Strings(exp)
				if !equal(got, exp) {
					t.Fatalf("%s traced=%v: metrics %v, BENCHMARK.json lists %v", w.name, traced, got, exp)
				}
				if traced && rep.metrics["failed_frac"].Value != 0 {
					t.Errorf("%s: failed_frac %v", w.name, rep.metrics["failed_frac"].Value)
				}
				records = append(records, rep.record)
			}
			if records[0] == "" || records[0] != records[1] {
				t.Errorf("%s traced=%v: virtual results differ between two runs:\n%s\n---\n%s",
					w.name, traced, records[0], records[1])
			}
		}
	}
}
