package obs

import (
	"math"
	"sort"
	"sync/atomic"
)

// LatencyBuckets are the default fixed boundaries for request/batch
// latency histograms: 100µs to 10s in a roughly logarithmic ladder, wide
// enough for both an in-process adaptation call and a loaded HTTP
// round-trip.
var LatencyBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
	0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// BatchSizeBuckets are the default fixed boundaries for micro-batch size
// distributions (powers of two up to a generous coalescing ceiling).
var BatchSizeBuckets = []float64{1, 2, 4, 8, 16, 32, 64, 128, 256}

// SizeBuckets are the default fixed boundaries for request/response body
// size histograms: 64 B to 4 MiB in powers of four, spanning a one-row
// JSON body through a large binary row batch.
var SizeBuckets = []float64{64, 256, 1024, 4096, 16384, 65536, 262144, 1048576, 4194304}

// PipelineBuckets are the fixed boundaries for the offline pipeline and
// drift-control metrics: fit, predict, shard and refit seconds, training
// losses, converged epochs, CI conditioning-set sizes, reconstruction
// RMSE and the KS/PSI drift statistics. All of these are non-negative;
// 1-2.5-5 steps per decade from 0.001 to 10000 keep a quick-scale run
// (GAN loss p99 ~43, adapter fit <= 2.5 s) well inside the top bound.
var PipelineBuckets = []float64{
	0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5,
	10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000,
}

// Histogram is a fixed-boundary histogram: observations are counted
// into buckets with explicit ascending upper bounds (plus an implicit
// +Inf overflow bucket), the native Prometheus "histogram" shape. It is
// lock-free — Observe is two atomic adds and a CAS loop for the sum —
// which suits high-rate serving paths where many goroutines record
// latencies concurrently. Quantiles (p50/p90/p99 via Snapshot) are
// estimated by linear interpolation inside the target bucket, exactly as
// Prometheus' histogram_quantile does; Sum()/Count() is the exact mean.
type Histogram struct {
	bounds  []float64 // ascending upper bounds; +Inf bucket is implicit
	buckets []atomic.Uint64
	count   atomic.Uint64
	sumBits atomic.Uint64
}

// NewHistogram creates a histogram with the given ascending upper
// bounds. The bounds are copied, sorted, and deduplicated; an empty list
// falls back to LatencyBuckets.
func NewHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		bounds = LatencyBuckets
	}
	bs := append([]float64(nil), bounds...)
	sort.Float64s(bs)
	dedup := bs[:0]
	for i, b := range bs {
		if math.IsNaN(b) || math.IsInf(b, 0) {
			continue
		}
		if i > 0 && len(dedup) > 0 && dedup[len(dedup)-1] == b {
			continue
		}
		dedup = append(dedup, b)
	}
	return &Histogram{
		bounds:  dedup,
		buckets: make([]atomic.Uint64, len(dedup)+1),
	}
}

// Observe counts one sample. NaN samples are dropped. Safe for concurrent
// use; nil-safe like every obs handle.
func (h *Histogram) Observe(v float64) {
	if h == nil || math.IsNaN(v) {
		return
	}
	i := searchBound(h.bounds, v)
	h.buckets[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observations.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

// Bounds returns the bucket upper bounds (shared slice; do not mutate).
func (h *Histogram) Bounds() []float64 {
	if h == nil {
		return nil
	}
	return h.bounds
}

// BucketCounts returns a snapshot of the per-bucket (non-cumulative)
// counts; the final element is the +Inf overflow bucket.
func (h *Histogram) BucketCounts() []uint64 {
	if h == nil {
		return nil
	}
	out := make([]uint64, len(h.buckets))
	for i := range h.buckets {
		out[i] = h.buckets[i].Load()
	}
	return out
}

// Quantile estimates the q-quantile (q in [0, 1]) by linear interpolation
// within the bucket containing the target rank, Prometheus-style: the
// first bucket interpolates from zero, and ranks landing in the +Inf
// bucket report the largest finite bound.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return 0
	}
	return bucketQuantile(h.bounds, h.BucketCounts(), q)
}

// searchBound returns the bucket index for value v against ascending
// bounds: the first bound >= v, or len(bounds) for the +Inf bucket.
func searchBound(bounds []float64, v float64) int {
	return sort.SearchFloat64s(bounds, v)
}

// bucketQuantile is the shared fixed-bucket quantile estimator used by
// Histogram and the rolling RED windows: counts holds per-bound
// counts plus the trailing +Inf bucket.
func bucketQuantile(bounds []float64, counts []uint64, q float64) float64 {
	var total uint64
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := q * float64(total)
	var cum float64
	for i, c := range counts {
		next := cum + float64(c)
		if target <= next && c > 0 {
			if i == len(bounds) {
				// Overflow bucket: no finite upper bound to interpolate to.
				if len(bounds) == 0 {
					return 0
				}
				return bounds[len(bounds)-1]
			}
			lo := 0.0
			if i > 0 {
				lo = bounds[i-1]
			}
			return lo + (bounds[i]-lo)*(target-cum)/float64(c)
		}
		cum = next
	}
	if len(bounds) == 0 {
		return 0
	}
	return bounds[len(bounds)-1]
}
