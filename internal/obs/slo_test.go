package obs

import (
	"bytes"
	"math"
	"testing"
	"time"
)

// fakeClock is an injectable, manually advanced clock for rolling-window
// tests.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }
func newFakeClock() *fakeClock               { return &fakeClock{t: time.Unix(1_700_000_000, 0)} }
func approx(a, b, tol float64) bool          { return math.Abs(a-b) <= tol }

func TestREDTrackerBurnRateMath(t *testing.T) {
	clk := newFakeClock()
	slo := SLO{LatencyObjective: 0.1, Availability: 0.99} // 1% error budget
	tr := NewREDTracker(slo, time.Minute, 6, clk.now)

	for i := 0; i < 90; i++ {
		tr.Observe(0.01, false) // fast successes
	}
	for i := 0; i < 5; i++ {
		tr.Observe(0.01, true) // errors
	}
	for i := 0; i < 5; i++ {
		tr.Observe(0.5, false) // successful but over the latency objective
	}
	clk.advance(20 * time.Second)

	st := tr.Stats(time.Minute)
	if st.Requests != 100 || st.Errors != 5 || st.SlowOverSLO != 5 {
		t.Fatalf("counts = %d/%d/%d, want 100/5/5", st.Requests, st.Errors, st.SlowOverSLO)
	}
	if !approx(st.ErrorFraction, 0.05, 1e-12) {
		t.Errorf("ErrorFraction = %v, want 0.05", st.ErrorFraction)
	}
	if !approx(st.BadFraction, 0.10, 1e-12) {
		t.Errorf("BadFraction = %v, want 0.10 (errors + slow)", st.BadFraction)
	}
	// burn = bad / (1 - availability) = 0.10 / 0.01 = 10x the budget.
	if !approx(st.BurnRate, 10, 1e-9) {
		t.Errorf("BurnRate = %v, want 10", st.BurnRate)
	}
	// Coverage is clamped to the tracker's 20s age, so the rate is honest.
	if !approx(st.RatePerSec, 100.0/20.0, 1e-9) {
		t.Errorf("RatePerSec = %v, want 5 (100 reqs over 20s of life)", st.RatePerSec)
	}
	// Quantiles: p50 lands in a low-latency bucket, p99 in a slow one.
	if st.P50Seconds <= 0 || st.P50Seconds > 0.1 {
		t.Errorf("P50 = %v, want within the fast buckets", st.P50Seconds)
	}
	if st.P99Seconds < 0.1 {
		t.Errorf("P99 = %v, want pulled up by the 0.5s tail", st.P99Seconds)
	}
}

func TestREDTrackerWindowAging(t *testing.T) {
	clk := newFakeClock()
	tr := NewREDTracker(SLO{}, time.Minute, 6, clk.now) // 10s buckets
	for i := 0; i < 10; i++ {
		tr.Observe(0.01, false)
	}
	clk.advance(40 * time.Second)
	if st := tr.Stats(time.Minute); st.Requests != 10 {
		t.Errorf("after 40s: Requests = %d, want 10 still inside the window", st.Requests)
	}
	// A shorter lookback excludes the old bucket entirely.
	if st := tr.Stats(20 * time.Second); st.Requests != 0 {
		t.Errorf("20s lookback: Requests = %d, want 0", st.Requests)
	}
	clk.advance(40 * time.Second) // 80s total: everything aged out
	if st := tr.Stats(time.Minute); st.Requests != 0 {
		t.Errorf("after 80s: Requests = %d, want 0 (aged out)", st.Requests)
	}
	// New traffic lands in recycled buckets.
	tr.Observe(0.01, true)
	if st := tr.Stats(time.Minute); st.Requests != 1 || st.Errors != 1 {
		t.Errorf("recycled ring: %d/%d, want 1/1", st.Requests, st.Errors)
	}
}

func TestREDTrackerNilAndDefaults(t *testing.T) {
	var tr *REDTracker
	tr.Observe(1, true) // must not panic
	if st := tr.Stats(time.Minute); st.Requests != 0 {
		t.Error("nil tracker reported requests")
	}
	if got := (SLO{}).withDefaults(); got.LatencyObjective != 0.25 || got.Availability != 0.999 {
		t.Errorf("withDefaults = %+v", got)
	}
}

func TestSLOSetReportAndNames(t *testing.T) {
	clk := newFakeClock()
	s := NewSLOSet(SLO{}, time.Minute, 6, clk.now)
	s.Observe("/v1/adapt", 0.01, false)
	s.Observe("fault:batch.exec", 0, true)
	s.Observe("/healthz", 0.001, false)
	names := s.Names()
	want := []string{"/healthz", "/v1/adapt", "fault:batch.exec"}
	if len(names) != len(want) {
		t.Fatalf("Names = %v, want %v", names, want)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("Names = %v, want sorted %v", names, want)
		}
	}
	rep := s.Report(time.Minute)
	if len(rep) != 3 || len(rep["/v1/adapt"]) != 1 || rep["/v1/adapt"][0].Requests != 1 {
		t.Errorf("Report = %v", rep)
	}
	var nilSet *SLOSet
	nilSet.Observe("x", 1, true) // must not panic
	if nilSet.Report() != nil || nilSet.Names() != nil {
		t.Error("nil SLOSet is not a no-op")
	}
}

// TestSLOExportExpositionByteStable is the map-ordering regression gate:
// two registries fed the same metrics in different insertion orders — and
// scraped repeatedly — must render byte-identical Prometheus text.
func TestSLOExportExpositionByteStable(t *testing.T) {
	render := func(order []string) []byte {
		clk := newFakeClock()
		s := NewSLOSet(SLO{}, time.Minute, 6, clk.now)
		for _, name := range order {
			s.Observe(name, 0.01, false)
			s.Observe(name, 0.3, true)
		}
		clk.advance(10 * time.Second)
		r := NewRegistry()
		// Counters registered in endpoint-dependent order too.
		for _, name := range order {
			r.Counter(MetricServeRequests, "outcome", name).Inc()
		}
		s.Export(r, time.Minute, 5*time.Minute)
		s.Export(r, time.Minute, 5*time.Minute) // re-export: same identities, no dupes
		var buf bytes.Buffer
		r.WritePrometheus(&buf)
		return buf.Bytes()
	}
	a := render([]string{"/v1/adapt", "/healthz", "fault:batch.exec"})
	b := render([]string{"fault:batch.exec", "/healthz", "/v1/adapt"})
	if !bytes.Equal(a, b) {
		t.Errorf("exposition depends on insertion order:\n--- a ---\n%s\n--- b ---\n%s", a, b)
	}
	c := render([]string{"/v1/adapt", "/healthz", "fault:batch.exec"})
	if !bytes.Equal(a, c) {
		t.Error("exposition not byte-stable across identical runs")
	}
}
