package main

import (
	"math"
	"testing"
	"time"

	"netdrift/internal/obs"
)

func ramp(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending: summarize must sort
	}
	return xs
}

func TestSummarizePicksHighestSupportedTail(t *testing.T) {
	for _, tc := range []struct {
		n      int
		tailAt string
		tail   float64
		median float64
	}{
		{0, "", 0, 0},
		{1, "max", 1, 1},
		{99, "max", 99, 50},       // p90 would leave 9 beyond it
		{100, "p90", 90, 50.5},    // rank 90, ten beyond
		{999, "p90", 900, 500},    // p99 would leave 9 beyond it
		{1000, "p99", 990, 500.5}, // rank 990, ten beyond
		{10000, "p99.9", 9990, 5000.5},
	} {
		s := summarize(ramp(tc.n))
		if s.N != tc.n || s.TailAt != tc.tailAt || s.Tail != tc.tail || s.Median != tc.median {
			t.Errorf("n=%d: got %+v, want tail %s=%g median %g", tc.n, s, tc.tailAt, tc.tail, tc.median)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// Expected values from Python's statistics.quantiles(data, n=4).
	for _, tc := range []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3.1, 1.2, 5.5, 2.2}, [3]float64{1.45, 2.65, 4.9}},
		{[]float64{7, 1}, [3]float64{-0.5, 4, 8.5}},
		{[]float64{1, 2, 3}, [3]float64{1, 2, 3}},
	} {
		got := quartiles(tc.in)
		for i := range got {
			if math.Abs(got[i]-tc.want[i]) > 1e-12 {
				t.Errorf("quartiles(%v) = %v, want %v", tc.in, got, tc.want)
				break
			}
		}
	}
}

func TestSelfTimesSubtractsChildCoverageOnce(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	spans := []obs.SpanData{
		{ID: 1, Start: at(0), Duration: 100 * time.Millisecond},
		{ID: 2, ParentID: 1, Start: at(10), Duration: 30 * time.Millisecond}, // 10-40
		{ID: 3, ParentID: 1, Start: at(30), Duration: 20 * time.Millisecond}, // 30-50, overlaps 2
		{ID: 4, ParentID: 1, Start: at(90), Duration: 30 * time.Millisecond}, // 90-120, clipped at 100
		{ID: 5, ParentID: 2, Start: at(15), Duration: 10 * time.Millisecond}, // grandchild: not 1's
	}
	self := selfTimes(spans)
	want := map[uint64]time.Duration{1: 50 * time.Millisecond, 2: 20 * time.Millisecond, 3: 20 * time.Millisecond, 5: 10 * time.Millisecond}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("span %d self time %v, want %v", id, self[id], w)
		}
	}
}
