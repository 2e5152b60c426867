package obs

import (
	"math"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"
)

func TestFixedHistogramBuckets(t *testing.T) {
	h := NewHistogram([]float64{1, 2, 5})
	for _, v := range []float64{0.5, 1, 1.5, 2, 3, 10, math.NaN()} {
		h.Observe(v)
	}
	if got := h.Count(); got != 6 {
		t.Errorf("count = %d, want 6 (NaN dropped)", got)
	}
	if got, want := h.Sum(), 0.5+1+1.5+2+3+10; got != want {
		t.Errorf("sum = %v, want %v", got, want)
	}
	// Bucket semantics are le (inclusive upper bound), Prometheus-style.
	want := []uint64{2, 2, 1, 1} // le=1: {0.5, 1}; le=2: {1.5, 2}; le=5: {3}; +Inf: {10}
	got := h.BucketCounts()
	if len(got) != len(want) {
		t.Fatalf("bucket count slice length %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("bucket[%d] = %d, want %d", i, got[i], want[i])
		}
	}
}

func TestFixedHistogramQuantile(t *testing.T) {
	h := NewHistogram([]float64{0.01, 0.1, 1})
	// 100 samples uniformly in the (0.01, 0.1] bucket.
	for i := 0; i < 100; i++ {
		h.Observe(0.05)
	}
	// The interpolated median of a single fully-populated bucket sits at
	// its midpoint.
	if got := h.Quantile(0.5); math.Abs(got-0.055) > 1e-9 {
		t.Errorf("p50 = %v, want 0.055 (bucket midpoint)", got)
	}
	if got := h.Quantile(1); math.Abs(got-0.1) > 1e-9 {
		t.Errorf("p100 = %v, want bucket upper bound 0.1", got)
	}
	// Overflow ranks clamp to the largest finite bound.
	h.Observe(50)
	if got := h.Quantile(0.999); got != 1 {
		t.Errorf("overflow quantile = %v, want largest finite bound 1", got)
	}
	var empty *Histogram
	if empty.Quantile(0.5) != 0 || NewHistogram(nil).Quantile(0.5) != 0 {
		t.Error("nil/empty histograms should report 0")
	}
}

func TestFixedHistogramConcurrent(t *testing.T) {
	h := NewHistogram([]float64{1, 10})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				h.Observe(0.5)
			}
		}()
	}
	wg.Wait()
	if got := h.Count(); got != 8000 {
		t.Errorf("count = %d, want 8000", got)
	}
	if got := h.Sum(); got != 4000 {
		t.Errorf("sum = %v, want 4000", got)
	}
}

func TestFixedHistogramExposition(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("req_seconds", []float64{0.1, 1}, "stage", "adapt")
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(3)
	// Same (name, labels) returns the same instance; bounds of later calls
	// are ignored.
	if again := r.Histogram("req_seconds", []float64{9}, "stage", "adapt"); again != h {
		t.Fatal("second Histogram call returned a different instance")
	}

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	text := b.String()
	for _, want := range []string{
		"# TYPE req_seconds histogram",
		`req_seconds_bucket{stage="adapt",le="0.1"} 1`,
		`req_seconds_bucket{stage="adapt",le="1"} 2`,
		`req_seconds_bucket{stage="adapt",le="+Inf"} 3`,
		`req_seconds_sum{stage="adapt"} 3.55`,
		`req_seconds_count{stage="adapt"} 3`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q:\n%s", want, text)
		}
	}

	// Snapshot carries count, sum, and the standard quantile points.
	var sawCount, sawP99 bool
	for _, s := range r.Snapshot() {
		switch {
		case s.Name == "req_seconds_count" && s.Value == 3:
			sawCount = true
		case s.Name == "req_seconds" && s.Labels["quantile"] == "0.99":
			sawP99 = true
		}
	}
	if !sawCount || !sawP99 {
		t.Errorf("snapshot missing fixed-histogram samples (count=%v p99=%v)", sawCount, sawP99)
	}
}

// exactQuantile computes the ground-truth q-quantile of a sorted slice via
// linear interpolation (same convention as internal/stats.Quantile).
func exactQuantile(sorted []float64, q float64) float64 {
	pos := q * float64(len(sorted)-1)
	lo, hi := int(math.Floor(pos)), int(math.Ceil(pos))
	return sorted[lo] + (pos-float64(lo))*(sorted[hi]-sorted[lo])
}

// testQuantileAccuracy checks the bucket-interpolated quantiles of a
// PipelineBuckets histogram against the exact ones: each estimate must
// lie within one ladder step (the width of the exact value's bucket).
func testQuantileAccuracy(t *testing.T, name string, draw func(*rand.Rand) float64) {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	const n = 20000
	h := NewHistogram(PipelineBuckets)
	data := make([]float64, n)
	var sum float64
	for i := range data {
		data[i] = draw(rng)
		h.Observe(data[i])
		sum += data[i]
	}
	sorted := append([]float64(nil), data...)
	sort.Float64s(sorted)
	for _, q := range []float64{0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99} {
		got, want := h.Quantile(q), exactQuantile(sorted, q)
		i := searchBound(PipelineBuckets, want)
		lo := 0.0
		if i > 0 {
			lo = PipelineBuckets[i-1]
		}
		if step := PipelineBuckets[i] - lo; math.Abs(got-want) > step {
			t.Errorf("%s: quantile(%.2f) = %.4f, exact %.4f (err %.4f > ladder step %.4f)",
				name, q, got, want, math.Abs(got-want), step)
		}
	}
	if h.Count() != n {
		t.Errorf("%s: count = %d, want %d", name, h.Count(), n)
	}
	if math.Abs(h.Sum()-sum) > 1e-9*math.Abs(sum) {
		t.Errorf("%s: sum = %g, want %g", name, h.Sum(), sum)
	}
}

func TestHistogramQuantileUniform(t *testing.T) {
	testQuantileAccuracy(t, "uniform", func(r *rand.Rand) float64 { return r.Float64() * 100 })
}

func TestHistogramQuantileNormal(t *testing.T) {
	testQuantileAccuracy(t, "normal", func(r *rand.Rand) float64 { return 5 + 2*r.NormFloat64() })
}

func TestHistogramQuantileExponential(t *testing.T) {
	testQuantileAccuracy(t, "exponential", func(r *rand.Rand) float64 { return r.ExpFloat64() })
}

func TestHistogramSmall(t *testing.T) {
	h := NewHistogram(PipelineBuckets)
	if h.Quantile(0.5) != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Fatal("empty histogram should report zeros")
	}
	h.Observe(3)
	if got := h.Quantile(0.5); got < 2.5 || got > 5 {
		t.Errorf("single-sample median = %g, want inside its bucket (2.5, 5]", got)
	}
	h.Observe(1)
	h.Observe(2)
	// The extreme quantiles are the outer edges of the extreme buckets.
	if got := h.Quantile(0); got != 0.5 {
		t.Errorf("q0 = %g, want 0.5 (lower edge of the bucket holding 1)", got)
	}
	if got := h.Quantile(1); got != 5 {
		t.Errorf("q1 = %g, want 5 (upper edge of the bucket holding 3)", got)
	}
	// Sum()/Count() is the exact mean, whatever the buckets.
	if got := h.Sum() / float64(h.Count()); got != 2 {
		t.Errorf("mean = %g, want 2", got)
	}
}

func TestHistogramNaNAndNil(t *testing.T) {
	h := NewHistogram(PipelineBuckets)
	h.Observe(math.NaN())
	if h.Count() != 0 {
		t.Error("NaN should be dropped")
	}
	var nilH *Histogram
	nilH.Observe(1) // must not panic
	if nilH.Count() != 0 || nilH.Sum() != 0 || nilH.Quantile(0.5) != 0 || nilH.BucketCounts() != nil {
		t.Error("nil histogram should be inert")
	}
}
