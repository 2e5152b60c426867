package obs

import (
	"strings"
	"sync"
	"testing"
)

func TestRegistryCountersAndGauges(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("requests_total", "code", "200")
	c.Inc()
	c.Add(2)
	c.Add(-5) // negative deltas ignored on counters
	if got := c.Value(); got != 3 {
		t.Errorf("counter = %g, want 3", got)
	}
	if same := r.Counter("requests_total", "code", "200"); same != c {
		t.Error("same (name, labels) should return the same counter")
	}
	if other := r.Counter("requests_total", "code", "500"); other == c {
		t.Error("different labels should return a different counter")
	}

	g := r.Gauge("temperature")
	g.Set(20)
	g.Add(-5)
	if got := g.Value(); got != 15 {
		t.Errorf("gauge = %g, want 15", got)
	}

	if v, ok := r.Value("requests_total", "code", "200"); !ok || v != 3 {
		t.Errorf("Value = %g, %v; want 3, true", v, ok)
	}
	if _, ok := r.Value("missing"); ok {
		t.Error("missing metric should report !ok")
	}
}

func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	const workers = 16
	const perWorker = 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				r.Counter("ops_total").Inc()
				r.Counter("ops_by_worker_total", "w", string(rune('a'+w%4))).Inc()
				r.Gauge("last").Set(float64(i))
				r.Histogram("latency", nil).Observe(float64(i))
				if i%100 == 0 {
					var b strings.Builder
					_ = r.WritePrometheus(&b)
					r.Snapshot()
				}
			}
		}(w)
	}
	wg.Wait()
	if got := r.Counter("ops_total").Value(); got != workers*perWorker {
		t.Errorf("ops_total = %g, want %d", got, workers*perWorker)
	}
	if got := r.Histogram("latency", nil).Count(); got != workers*perWorker {
		t.Errorf("latency count = %d, want %d", got, workers*perWorker)
	}
}

func TestWritePrometheusGolden(t *testing.T) {
	r := NewRegistry()
	r.Counter("netdrift_ci_tests_total", "kind", "marginal").Add(42)
	r.Counter("netdrift_ci_tests_total", "kind", "conditional").Add(7)
	r.Gauge("netdrift_up").Set(1)
	h := r.Histogram("netdrift_latency_seconds", []float64{1, 2.5}, "phase", "fit")
	for i := 1; i <= 4; i++ {
		h.Observe(float64(i))
	}
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	want := `# TYPE netdrift_ci_tests_total counter
netdrift_ci_tests_total{kind="conditional"} 7
netdrift_ci_tests_total{kind="marginal"} 42
# TYPE netdrift_latency_seconds histogram
netdrift_latency_seconds_bucket{phase="fit",le="1"} 1
netdrift_latency_seconds_bucket{phase="fit",le="2.5"} 2
netdrift_latency_seconds_bucket{phase="fit",le="+Inf"} 4
netdrift_latency_seconds_sum{phase="fit"} 10
netdrift_latency_seconds_count{phase="fit"} 4
# TYPE netdrift_up gauge
netdrift_up 1
`
	if got := b.String(); got != want {
		t.Errorf("prometheus output mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

func TestWritePrometheusParseable(t *testing.T) {
	// Every non-comment line must be `name{labels} value` with a float value.
	r := NewRegistry()
	r.Counter("a_total").Inc()
	r.Histogram("b_seconds", nil).Observe(0.5)
	r.Gauge("c", "k", `quo"te`).Set(-2)
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(strings.TrimSuffix(b.String(), "\n"), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("malformed line %q", line)
		}
		name := line[:sp]
		if strings.ContainsAny(name[:strings.IndexAny(name+"{", "{")], " \t") {
			t.Errorf("metric name with whitespace in %q", line)
		}
		if strings.Contains(name, "{") && !strings.HasSuffix(name, "}") {
			t.Errorf("unclosed label block in %q", line)
		}
	}
	if !strings.Contains(b.String(), `k="quo\"te"`) {
		t.Errorf("label escaping missing:\n%s", b.String())
	}
}

func TestSnapshot(t *testing.T) {
	r := NewRegistry()
	r.Counter("hits_total", "path", "/x").Add(5)
	r.Histogram("lat", nil).Observe(2)
	snap := r.Snapshot()
	byName := map[string]Sample{}
	for _, s := range snap {
		byName[s.Name+labelKey(flatten(s.Labels))] = s
	}
	found := false
	for _, s := range snap {
		if s.Name == "hits_total" && s.Labels["path"] == "/x" && s.Value == 5 {
			found = true
		}
	}
	if !found {
		t.Errorf("snapshot missing counter: %+v", snap)
	}
	var count, sum bool
	for _, s := range snap {
		if s.Name == "lat_count" && s.Value == 1 {
			count = true
		}
		if s.Name == "lat_sum" && s.Value == 2 {
			sum = true
		}
	}
	if !count || !sum {
		t.Errorf("snapshot missing histogram expansion: %+v", snap)
	}
}

func flatten(m map[string]string) []string {
	var out []string
	for k, v := range m {
		out = append(out, k, v)
	}
	return out
}

func TestNilRegistry(t *testing.T) {
	var r *Registry
	r.Counter("x").Inc()
	r.Gauge("y").Set(1)
	r.Histogram("z", nil).Observe(1)
	if err := r.WritePrometheus(&strings.Builder{}); err != nil {
		t.Fatal(err)
	}
	if r.Snapshot() != nil {
		t.Error("nil registry snapshot should be nil")
	}
	if _, ok := r.Value("x"); ok {
		t.Error("nil registry Value should report !ok")
	}
}
