package graph

import (
	"testing"

	"numabfs/internal/rmat"
)

func TestDegreesSmall(t *testing.T) {
	// Star: vertex 0 connected to 1, 2, 3; vertex 4 isolated.
	pairs := []int64{0, 1, 1, 0, 0, 2, 2, 0, 0, 3, 3, 0}
	c := BuildCSR(0, 5, [][]int64{pairs}, true)
	st := Degrees(c)
	if st.Vertices != 5 || st.Edges != 6 {
		t.Fatalf("stats: %+v", st)
	}
	if st.Isolated != 1 {
		t.Fatalf("isolated = %d", st.Isolated)
	}
	if st.MaxDeg != 3 {
		t.Fatalf("max = %d", st.MaxDeg)
	}
	if st.P50 != 1 {
		t.Fatalf("p50 = %d", st.P50)
	}
}

func TestDegreesScaleFree(t *testing.T) {
	c := BuildGlobal(rmat.Graph500(12), true)
	st := Degrees(c)
	if st.MaxDeg < 20*int64(st.MeanDeg) {
		t.Fatalf("R-MAT max degree %d not heavy-tailed (mean %.1f)", st.MaxDeg, st.MeanDeg)
	}
	if st.Isolated == 0 {
		t.Fatal("R-MAT graphs have isolated vertices")
	}
	if !(st.P50 <= st.P90 && st.P90 <= st.P99 && st.P99 <= st.MaxDeg) {
		t.Fatalf("percentiles not monotone: %+v", st)
	}
}

func TestDegreeHistogram(t *testing.T) {
	pairs := []int64{
		0, 1, 0, 2, 0, 3, 0, 4, // deg(0) = 4 -> bucket 2
		1, 0, // deg(1) = 1 -> bucket 0
		2, 0, 2, 1, // deg(2) = 2 -> bucket 1
	}
	c := BuildCSR(0, 5, [][]int64{pairs}, true)
	h := DegreeHistogram(c)
	if len(h) != 3 || h[0] != 1 || h[1] != 1 || h[2] != 1 {
		t.Fatalf("histogram = %v", h)
	}
	var total int64
	st := Degrees(c)
	for _, b := range h {
		total += b
	}
	if total != st.Vertices-st.Isolated {
		t.Fatalf("histogram covers %d, want %d", total, st.Vertices-st.Isolated)
	}
}
