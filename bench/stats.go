package main

import (
	"sort"
	"time"

	"netdrift/internal/obs"
)

// summary is a timing distribution reduced the way this benchmark reports
// every timing: the median, plus the highest of p90/p99/p99.9 that still
// has at least ten samples beyond it. With fewer than 100 samples no
// percentile qualifies and the tail is the maximum. Percentiles come from
// the raw samples (nearest rank), never from histogram buckets.
type summary struct {
	N      int
	Median float64
	Tail   float64
	TailAt string // "p99.9", "p99", "p90" or "max"
}

// tailRanks lists the candidate tail percentiles, highest first, in parts
// per thousand so the rank arithmetic stays exact.
var tailRanks = []struct {
	perMille int
	name     string
}{{999, "p99.9"}, {990, "p99"}, {900, "p90"}}

func summarize(xs []float64) summary {
	if len(xs) == 0 {
		return summary{}
	}
	s := sortedCopy(xs)
	n := len(s)
	out := summary{N: n, Median: medianSorted(s), Tail: s[n-1], TailAt: "max"}
	for _, r := range tailRanks {
		rank := (n*r.perMille + 999) / 1000 // 1-based nearest rank
		if n-rank >= 10 {
			out.Tail, out.TailAt = s[rank-1], r.name
			break
		}
	}
	return out
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median follows Python's statistics.median: the mean of the two middle
// values for an even count.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return medianSorted(sortedCopy(xs))
}

func medianSorted(s []float64) float64 {
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns Q1, Q2 and Q3 exactly as Python's
// statistics.quantiles(data, n=4) computes them (its default "exclusive"
// method), which is how the spread rule behind BENCHMARK.json's bounds is
// defined.
func quartiles(xs []float64) [3]float64 {
	s := sortedCopy(xs)
	n := len(s)
	switch n {
	case 0:
		return [3]float64{}
	case 1:
		return [3]float64{s[0], s[0], s[0]}
	}
	var q [3]float64
	m := n + 1
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval covered by its direct children, overlapping children
// counted once.
func selfTimes(spans []obs.SpanData) map[uint64]time.Duration {
	type interval struct{ lo, hi time.Time }
	children := make(map[uint64][]interval)
	for _, sp := range spans {
		if sp.ParentID != 0 {
			children[sp.ParentID] = append(children[sp.ParentID], interval{sp.Start, sp.Start.Add(sp.Duration)})
		}
	}
	self := make(map[uint64]time.Duration, len(spans))
	for _, sp := range spans {
		lo, hi := sp.Start, sp.Start.Add(sp.Duration)
		kids := children[sp.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].lo.Before(kids[j].lo) })
		var covered time.Duration
		cursor := lo
		for _, k := range kids {
			if k.lo.Before(cursor) {
				k.lo = cursor
			}
			if k.hi.After(hi) {
				k.hi = hi
			}
			if k.hi.After(k.lo) {
				covered += k.hi.Sub(k.lo)
				cursor = k.hi
			}
		}
		self[sp.ID] = sp.Duration - covered
	}
	return self
}
