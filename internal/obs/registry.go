// Package obs is the repo's dependency-free observability subsystem: a
// concurrency-safe metrics registry with Prometheus text exposition,
// span-style hierarchical tracing with pluggable sinks, and typed progress
// hooks for the training and search hot paths. Everything is nil-safe: a
// nil *Observer (and the nil metric handles it returns) makes every
// instrumentation call a cheap no-op, so library users who do not opt in
// pay essentially nothing.
package obs

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric. The zero value is unusable;
// obtain counters from a Registry. All methods are nil-safe.
type Counter struct {
	bits uint64 // float64 bits, updated via CAS
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add increases the counter by v (negative deltas are ignored).
func (c *Counter) Add(v float64) {
	if c == nil || v < 0 {
		return
	}
	for {
		old := atomic.LoadUint64(&c.bits)
		next := math.Float64bits(math.Float64frombits(old) + v)
		if atomic.CompareAndSwapUint64(&c.bits, old, next) {
			return
		}
	}
}

// Value returns the current count.
func (c *Counter) Value() float64 {
	if c == nil {
		return 0
	}
	return math.Float64frombits(atomic.LoadUint64(&c.bits))
}

// Gauge is a metric that can go up and down. All methods are nil-safe.
type Gauge struct {
	bits uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	atomic.StoreUint64(&g.bits, math.Float64bits(v))
}

// Add increments the gauge by v (may be negative).
func (g *Gauge) Add(v float64) {
	if g == nil {
		return
	}
	for {
		old := atomic.LoadUint64(&g.bits)
		next := math.Float64bits(math.Float64frombits(old) + v)
		if atomic.CompareAndSwapUint64(&g.bits, old, next) {
			return
		}
	}
}

// Value returns the current gauge value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(atomic.LoadUint64(&g.bits))
}

// metricKind tags a family for exposition.
type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// family groups all label variants of one metric name.
type family struct {
	kind    metricKind
	byLabel map[string]any // labelKey -> *Counter | *Gauge | *Histogram
	labels  map[string][]string
}

// Registry holds named metrics. It is safe for concurrent use; metric
// handles are created on first access and cached by (name, labels).
// A nil *Registry returns nil handles, whose methods are no-ops.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry creates an empty metrics registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// labelKey serializes a label set into a deterministic map key.
func labelKey(labels []string) string {
	if len(labels) == 0 {
		return ""
	}
	return strings.Join(labels, "\xff")
}

// pairs validates alternating key/value labels.
func pairs(labels []string) []string {
	if len(labels)%2 != 0 {
		panic(fmt.Sprintf("obs: odd label list %q (want key/value pairs)", labels))
	}
	return labels
}

func (r *Registry) metric(name string, kind metricKind, labels []string, make func() any) any {
	pairs(labels)
	key := labelKey(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	fam := r.families[name]
	if fam == nil {
		fam = &family{kind: kind, byLabel: map[string]any{}, labels: map[string][]string{}}
		r.families[name] = fam
	}
	if fam.kind != kind {
		panic(fmt.Sprintf("obs: metric %q reused as %v, registered as %v", name, kind, fam.kind))
	}
	m := fam.byLabel[key]
	if m == nil {
		m = make()
		fam.byLabel[key] = m
		fam.labels[key] = append([]string(nil), labels...)
	}
	return m
}

// Counter returns the counter for name and the given key/value label pairs,
// creating it on first use.
func (r *Registry) Counter(name string, labels ...string) *Counter {
	if r == nil {
		return nil
	}
	return r.metric(name, kindCounter, labels, func() any { return new(Counter) }).(*Counter)
}

// Gauge returns the gauge for name and label pairs.
func (r *Registry) Gauge(name string, labels ...string) *Gauge {
	if r == nil {
		return nil
	}
	return r.metric(name, kindGauge, labels, func() any { return new(Gauge) }).(*Gauge)
}

// Histogram returns the fixed-boundary histogram for name and label
// pairs, creating it with the given bucket bounds on first use. Later
// calls for the same (name, labels) return the existing instance — the
// first caller's bounds win; pass nil bounds to accept whatever is
// already registered (or LatencyBuckets on first use).
func (r *Registry) Histogram(name string, bounds []float64, labels ...string) *Histogram {
	if r == nil {
		return nil
	}
	return r.metric(name, kindHistogram, labels, func() any { return NewHistogram(bounds) }).(*Histogram)
}

// Sample is one exported metric point (histograms expand into several).
type Sample struct {
	Name   string            `json:"name"`
	Labels map[string]string `json:"labels,omitempty"`
	Value  float64           `json:"value"`
}

// snapshotEntry pairs a family name with one labelled metric for iteration.
type snapshotEntry struct {
	name   string
	kind   metricKind
	labels []string
	metric any
}

func (r *Registry) entries() []snapshotEntry {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []snapshotEntry
	for name, fam := range r.families {
		for key, m := range fam.byLabel {
			out = append(out, snapshotEntry{name: name, kind: fam.kind, labels: fam.labels[key], metric: m})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].name != out[j].name {
			return out[i].name < out[j].name
		}
		return labelKey(out[i].labels) < labelKey(out[j].labels)
	})
	return out
}

// exportQuantiles are the quantile points exposed for each histogram.
var exportQuantiles = []float64{0.5, 0.9, 0.99}

// Snapshot flattens the registry into samples: counters and gauges one
// sample each; histograms expand into _count, _sum, and quantile samples.
func (r *Registry) Snapshot() []Sample {
	if r == nil {
		return nil
	}
	var out []Sample
	for _, e := range r.entries() {
		lab := labelMap(e.labels)
		switch m := e.metric.(type) {
		case *Counter:
			out = append(out, Sample{Name: e.name, Labels: lab, Value: m.Value()})
		case *Gauge:
			out = append(out, Sample{Name: e.name, Labels: lab, Value: m.Value()})
		case *Histogram:
			out = append(out, Sample{Name: e.name + "_count", Labels: lab, Value: float64(m.Count())})
			out = append(out, Sample{Name: e.name + "_sum", Labels: lab, Value: m.Sum()})
			counts := m.BucketCounts()
			for _, q := range exportQuantiles {
				ql := labelMap(e.labels)
				if ql == nil {
					ql = map[string]string{}
				}
				ql["quantile"] = formatFloat(q)
				out = append(out, Sample{Name: e.name, Labels: ql, Value: bucketQuantile(m.Bounds(), counts, q)})
			}
		}
	}
	return out
}

// Value returns the current value of a counter or gauge, reporting whether
// it exists. Histograms are not addressable through Value; use Histogram.
func (r *Registry) Value(name string, labels ...string) (float64, bool) {
	if r == nil {
		return 0, false
	}
	pairs(labels)
	r.mu.Lock()
	fam := r.families[name]
	var m any
	if fam != nil {
		m = fam.byLabel[labelKey(labels)]
	}
	r.mu.Unlock()
	switch v := m.(type) {
	case *Counter:
		return v.Value(), true
	case *Gauge:
		return v.Value(), true
	default:
		return 0, false
	}
}

// WritePrometheus renders the registry in the Prometheus text exposition
// format (version 0.0.4). Output is deterministic: families sorted by
// name, label variants sorted by label values.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	var b strings.Builder
	lastName := ""
	for _, e := range r.entries() {
		if e.name != lastName {
			fmt.Fprintf(&b, "# TYPE %s %s\n", e.name, e.kind)
			lastName = e.name
		}
		switch m := e.metric.(type) {
		case *Counter:
			fmt.Fprintf(&b, "%s%s %s\n", e.name, renderLabels(e.labels), formatFloat(m.Value()))
		case *Gauge:
			fmt.Fprintf(&b, "%s%s %s\n", e.name, renderLabels(e.labels), formatFloat(m.Value()))
		case *Histogram:
			counts := m.BucketCounts()
			var cum uint64
			for i, bound := range m.Bounds() {
				cum += counts[i]
				bl := append(append([]string(nil), e.labels...), "le", formatFloat(bound))
				fmt.Fprintf(&b, "%s_bucket%s %d\n", e.name, renderLabels(bl), cum)
			}
			cum += counts[len(counts)-1]
			bl := append(append([]string(nil), e.labels...), "le", "+Inf")
			fmt.Fprintf(&b, "%s_bucket%s %d\n", e.name, renderLabels(bl), cum)
			fmt.Fprintf(&b, "%s_sum%s %s\n", e.name, renderLabels(e.labels), formatFloat(m.Sum()))
			fmt.Fprintf(&b, "%s_count%s %d\n", e.name, renderLabels(e.labels), m.Count())
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// ServeHTTP makes the registry mountable as a /metrics handler.
func (r *Registry) ServeHTTP(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = r.WritePrometheus(w)
}

func labelMap(labels []string) map[string]string {
	if len(labels) == 0 {
		return nil
	}
	m := make(map[string]string, len(labels)/2)
	for i := 0; i+1 < len(labels); i += 2 {
		m[labels[i]] = labels[i+1]
	}
	return m
}

func renderLabels(labels []string) string {
	if len(labels) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i := 0; i+1 < len(labels); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(labels[i])
		b.WriteString(`="`)
		b.WriteString(escapeLabel(labels[i+1]))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return strings.ReplaceAll(v, `"`, `\"`)
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}
