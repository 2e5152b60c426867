package obs

import (
	"sort"
	"sync"
	"time"
)

// SLO declares the service-level objective that burn rates are computed
// against: a request is "bad" when it errors or completes slower than
// LatencyObjective; the error budget is 1 - Availability.
type SLO struct {
	LatencyObjective float64 `json:"latency_objective_seconds"` // default 250ms
	Availability     float64 `json:"availability"`              // default 0.999
}

func (s SLO) withDefaults() SLO {
	if s.LatencyObjective <= 0 {
		s.LatencyObjective = 0.25
	}
	if s.Availability <= 0 || s.Availability >= 1 {
		s.Availability = 0.999
	}
	return s
}

// DefaultBurnWindows are the multi-window burn-rate horizons reported when
// none are given: a fast window that reacts to incidents within a minute
// and a slow one that smooths bursts.
var DefaultBurnWindows = []time.Duration{time.Minute, 5 * time.Minute}

// REDStats is one endpoint's rolling-window RED summary (rate, errors,
// duration) plus its burn rate against the tracker's SLO.
type REDStats struct {
	Window        string  `json:"window"`
	Requests      uint64  `json:"requests"`
	Errors        uint64  `json:"errors"`
	SlowOverSLO   uint64  `json:"slow_over_slo"`
	RatePerSec    float64 `json:"rate_per_sec"`
	ErrorFraction float64 `json:"error_fraction"`
	BadFraction   float64 `json:"bad_fraction"`
	BurnRate      float64 `json:"burn_rate"`
	P50Seconds    float64 `json:"p50_seconds"`
	P95Seconds    float64 `json:"p95_seconds"`
	P99Seconds    float64 `json:"p99_seconds"`
}

// redBucket is one time slice of the rolling window.
type redBucket struct {
	requests uint64
	errors   uint64
	slow     uint64 // successful but over the latency objective
	sum      float64
	hist     []uint64 // per-bound counts + overflow, aligned with tracker bounds
}

func (b *redBucket) reset() {
	b.requests, b.errors, b.slow, b.sum = 0, 0, 0, 0
	for i := range b.hist {
		b.hist[i] = 0
	}
}

// REDTracker keeps RED metrics over a rolling window, sliced into fixed
// buckets that age out in place — memory is constant regardless of
// traffic. One mutex guards the ring; at serving rates this is far off the
// critical path (one lock per request, no allocation).
type REDTracker struct {
	slo       SLO
	bounds    []float64
	bucketDur time.Duration
	now       func() time.Time

	mu        sync.Mutex
	buckets   []redBucket
	head      int
	headStart time.Time
	born      time.Time
}

// NewREDTracker builds a tracker whose ring covers window in numBuckets
// slices (defaults: 5m in 60 buckets). now is injectable for tests; nil
// uses the wall clock. Latency quantiles use LatencyBuckets bounds.
func NewREDTracker(slo SLO, window time.Duration, numBuckets int, now func() time.Time) *REDTracker {
	if window <= 0 {
		window = 5 * time.Minute
	}
	if numBuckets <= 0 {
		numBuckets = 60
	}
	if now == nil {
		now = time.Now
	}
	t := &REDTracker{
		slo:       slo.withDefaults(),
		bounds:    LatencyBuckets,
		bucketDur: window / time.Duration(numBuckets),
		now:       now,
		buckets:   make([]redBucket, numBuckets),
	}
	for i := range t.buckets {
		t.buckets[i].hist = make([]uint64, len(t.bounds)+1)
	}
	start := now()
	t.headStart, t.born = start, start
	return t
}

// rotate advances the ring to cover now, zeroing aged-out buckets.
// Callers hold mu.
func (t *REDTracker) rotate(now time.Time) {
	steps := int(now.Sub(t.headStart) / t.bucketDur)
	if steps <= 0 {
		return
	}
	if steps >= len(t.buckets) {
		for i := range t.buckets {
			t.buckets[i].reset()
		}
	} else {
		for i := 1; i <= steps; i++ {
			t.buckets[(t.head+i)%len(t.buckets)].reset()
		}
	}
	t.head = (t.head + steps) % len(t.buckets)
	t.headStart = t.headStart.Add(time.Duration(steps) * t.bucketDur)
}

// Observe records one request outcome. Nil-safe and allocation-free.
func (t *REDTracker) Observe(latencySeconds float64, isErr bool) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.rotate(t.now())
	b := &t.buckets[t.head]
	b.requests++
	if isErr {
		b.errors++
	} else if latencySeconds > t.slo.LatencyObjective {
		b.slow++
	}
	b.sum += latencySeconds
	b.hist[searchBound(t.bounds, latencySeconds)]++
	t.mu.Unlock()
}

// Stats summarizes the most recent window (clamped to the ring's span).
// The burn rate is badFraction / (1 - availability): 1.0 means the error
// budget is being consumed exactly as provisioned, >1 means faster.
func (t *REDTracker) Stats(window time.Duration) REDStats {
	if t == nil {
		return REDStats{Window: window.String()}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	now := t.now()
	t.rotate(now)
	k := int((window + t.bucketDur - 1) / t.bucketDur)
	if k < 1 {
		k = 1
	}
	if k > len(t.buckets) {
		k = len(t.buckets)
	}
	st := REDStats{Window: window.String()}
	merged := make([]uint64, len(t.bounds)+1)
	for i := 0; i < k; i++ {
		b := &t.buckets[(t.head-i+len(t.buckets))%len(t.buckets)]
		st.Requests += b.requests
		st.Errors += b.errors
		st.SlowOverSLO += b.slow
		for j, c := range b.hist {
			merged[j] += c
		}
	}
	// Effective coverage: full aged buckets plus the partially filled head,
	// clamped to the tracker's age so a fresh tracker reports honest rates.
	covered := time.Duration(k-1)*t.bucketDur + now.Sub(t.headStart)
	if age := now.Sub(t.born); covered > age {
		covered = age
	}
	if secs := covered.Seconds(); secs > 0 {
		st.RatePerSec = float64(st.Requests) / secs
	}
	if st.Requests > 0 {
		st.ErrorFraction = float64(st.Errors) / float64(st.Requests)
		st.BadFraction = float64(st.Errors+st.SlowOverSLO) / float64(st.Requests)
		st.BurnRate = st.BadFraction / (1 - t.slo.Availability)
	}
	st.P50Seconds = bucketQuantile(t.bounds, merged, 0.50)
	st.P95Seconds = bucketQuantile(t.bounds, merged, 0.95)
	st.P99Seconds = bucketQuantile(t.bounds, merged, 0.99)
	return st
}

// SLOSet tracks one REDTracker per endpoint (or fault site) under a shared
// SLO and ring geometry. The zero ring geometry covers the longest default
// burn window. A nil *SLOSet is a no-op.
type SLOSet struct {
	slo     SLO
	window  time.Duration
	buckets int
	now     func() time.Time

	mu       sync.Mutex
	trackers map[string]*REDTracker
}

// NewSLOSet builds an endpoint-keyed tracker set. window/numBuckets pick
// the ring geometry (defaults 5m / 60); now is injectable for tests.
func NewSLOSet(slo SLO, window time.Duration, numBuckets int, now func() time.Time) *SLOSet {
	return &SLOSet{
		slo:      slo.withDefaults(),
		window:   window,
		buckets:  numBuckets,
		now:      now,
		trackers: make(map[string]*REDTracker),
	}
}

// Objective returns the shared SLO.
func (s *SLOSet) Objective() SLO {
	if s == nil {
		return SLO{}.withDefaults()
	}
	return s.slo
}

// Tracker returns (creating on first use) the tracker for name.
func (s *SLOSet) Tracker(name string) *REDTracker {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	t := s.trackers[name]
	if t == nil {
		t = NewREDTracker(s.slo, s.window, s.buckets, s.now)
		s.trackers[name] = t
	}
	return t
}

// Observe records one outcome against name's tracker.
func (s *SLOSet) Observe(name string, latencySeconds float64, isErr bool) {
	s.Tracker(name).Observe(latencySeconds, isErr)
}

// Names returns the tracked endpoint names, sorted.
func (s *SLOSet) Names() []string {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	names := make([]string, 0, len(s.trackers))
	for name := range s.trackers {
		names = append(names, name)
	}
	s.mu.Unlock()
	sort.Strings(names)
	return names
}

// Report summarizes every tracked endpoint over the given windows
// (DefaultBurnWindows when none are given), endpoints sorted by name.
func (s *SLOSet) Report(windows ...time.Duration) map[string][]REDStats {
	if s == nil {
		return nil
	}
	if len(windows) == 0 {
		windows = DefaultBurnWindows
	}
	out := make(map[string][]REDStats)
	for _, name := range s.Names() {
		t := s.Tracker(name)
		stats := make([]REDStats, 0, len(windows))
		for _, w := range windows {
			stats = append(stats, t.Stats(w))
		}
		out[name] = stats
	}
	return out
}

// Export publishes the rolling stats as gauges in r, so one /metrics
// scrape carries the burn rates alongside the cumulative counters. Gauge
// identities are stable across calls (same names and labels), keeping the
// exposition's family/label ordering byte-stable.
func (s *SLOSet) Export(r *Registry, windows ...time.Duration) {
	if s == nil || r == nil {
		return
	}
	if len(windows) == 0 {
		windows = DefaultBurnWindows
	}
	for _, name := range s.Names() {
		t := s.Tracker(name)
		for _, w := range windows {
			st := t.Stats(w)
			wl := w.String()
			r.Gauge(MetricSLOBurnRate, "endpoint", name, "window", wl).Set(st.BurnRate)
			r.Gauge(MetricSLOErrFraction, "endpoint", name, "window", wl).Set(st.ErrorFraction)
			r.Gauge(MetricSLOReqRate, "endpoint", name, "window", wl).Set(st.RatePerSec)
			r.Gauge(MetricSLOLatency, "endpoint", name, "window", wl, "quantile", "0.5").Set(st.P50Seconds)
			r.Gauge(MetricSLOLatency, "endpoint", name, "window", wl, "quantile", "0.95").Set(st.P95Seconds)
			r.Gauge(MetricSLOLatency, "endpoint", name, "window", wl, "quantile", "0.99").Set(st.P99Seconds)
		}
	}
}
