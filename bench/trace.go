package main

import (
	"encoding/json"
	"os"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"netdrift/internal/obs"
)

// tracer records one traced pass: the program's spans (through an
// obs.MemorySink on the observer it is handed), the benchmark's own spans
// around each call it makes into a public function, the program's
// TrainHook/SearchHook events, and the counters of that observer's
// registry. Everything stays in memory until the run ends. A nil *tracer
// is an untraced pass and every method is a no-op.
type tracer struct {
	o       *obs.Observer
	sink    *obs.MemorySink
	ciTests atomic.Int64

	mu     sync.Mutex
	epochs []epochMark
	allocs map[string]float64 // MB allocated inside each bench.<name> call
}

type epochMark struct {
	at    time.Time
	model string
	epoch int
}

func newTracer() *tracer {
	t := &tracer{sink: obs.NewMemorySink(), allocs: make(map[string]float64)}
	t.o = &obs.Observer{Registry: obs.NewRegistry(), Spans: t.sink, Train: t, Search: t}
	return t
}

// observer is what the traced program is handed; nil when untraced.
func (t *tracer) observer() *obs.Observer {
	if t == nil {
		return nil
	}
	return t.o
}

// Epoch implements obs.TrainHook; the hook carries no timestamp, so the
// arrival time stands in for the epoch's end.
func (t *tracer) Epoch(e obs.TrainEpoch) {
	t.mu.Lock()
	t.epochs = append(t.epochs, epochMark{at: time.Now(), model: e.Model, epoch: e.Epoch})
	t.mu.Unlock()
}

// Done implements obs.TrainHook.
func (t *tracer) Done(obs.TrainDone) {}

// CITest implements obs.SearchHook.
func (t *tracer) CITest(obs.CITest) { t.ciTests.Add(1) }

// Verdict implements obs.SearchHook.
func (t *tracer) Verdict(obs.FeatureVerdict) {}

// call runs fn under a benchmark span named "bench."+name and adds the heap
// allocated meanwhile (process-wide) to name's total.
func (t *tracer) call(name string, fn func() error) error {
	if t == nil {
		return fn()
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	sp := t.o.StartSpan("bench." + name)
	err := fn()
	sp.End()
	runtime.ReadMemStats(&after)
	t.mu.Lock()
	t.allocs[name] += mb(after.TotalAlloc - before.TotalAlloc)
	t.mu.Unlock()
	return err
}

func mb(bytes uint64) float64 { return float64(bytes) / (1 << 20) }

// layers computes the per-layer metrics the program's own telemetry
// supports. Work totals are divided by jobs, the number of jobs the pass
// timed; busyOver is the worker-seconds the pass had available.
func (t *tracer) layers(jobs int, busyOver float64) map[string]float64 {
	m := make(map[string]float64)
	perJob := func(v float64) float64 { return v / float64(max(jobs, 1)) }
	spans := t.sink.Spans()
	byName := make(map[string][]obs.SpanData)
	for _, sp := range spans {
		byName[sp.Name] = append(byName[sp.Name], sp)
	}
	total := func(name string) float64 {
		var s float64
		for _, sp := range byName[name] {
			s += sp.Duration.Seconds()
		}
		return s
	}
	durationsMS := func(name string) []float64 {
		var xs []float64
		for _, sp := range byName[name] {
			xs = append(xs, float64(sp.Duration)/float64(time.Millisecond))
		}
		return xs
	}

	fs := total("feature_separation")
	ci := float64(t.ciTests.Load())
	m["causal.fs_s"] = perJob(fs)
	m["causal.ci_tests"] = perJob(ci)
	if ci > 0 {
		m["causal.ci_test_us"] = fs * 1e6 / ci
	}

	m["core.recon_fit_s"] = perJob(total("reconstructor.fit"))
	intervals, ganEpochs := t.epochIntervals("GAN")
	m["core.gan_epochs"] = perJob(float64(ganEpochs))
	m["core.gan_epoch_ms"] = median(intervals)
	t.mu.Lock()
	m["core.fit_alloc_mb"] = perJob(t.allocs["adapter_fit"])
	m["models.mlp_fit_alloc_mb"] = perJob(t.allocs["mlp_fit"])
	t.mu.Unlock()
	m["models.mlp_fit_s"] = perJob(total("bench.mlp_fit"))

	var cells, cellMax float64
	for _, sp := range byName["method.predict"] {
		s := sp.Duration.Seconds()
		cells += s
		cellMax = max(cellMax, s)
		m["baselines."+methodKey(sp.Attrs.Get("method"))+"_s"] += perJob(s)
	}
	if cells > 0 && busyOver > 0 {
		m["experiments.busy_frac"] = cells / busyOver
	}
	m["experiments.cell_s_max"] = cellMax

	batches, _ := t.o.Registry.Value(obs.MetricServeBatches)
	rows, _ := t.o.Registry.Value(obs.MetricServeRows)
	m["serve.batches"] = batches
	if batches > 0 {
		m["serve.batch_rows_mean"] = rows / batches
	}
	m["serve.shed"], _ = t.o.Registry.Value(obs.MetricServeShed)
	m["serve.degraded"], _ = t.o.Registry.Value(obs.MetricServeDegraded)
	var waits []float64
	for _, sp := range byName["http.adapt"] {
		if us, err := strconv.ParseFloat(sp.Attrs.Get("queue_wait_us"), 64); err == nil {
			waits = append(waits, us/1e3)
		}
	}
	qw := summarize(waits)
	m["serve.queue_wait_ms_p50"], m["serve.queue_wait_ms_tail"] = qw.Median, qw.Tail
	m["serve.exec_ms_p50"] = median(durationsMS("serve.batch"))
	h := summarize(durationsMS("http.adapt"))
	m["serve.handler_ms_p50"], m["serve.handler_ms_tail"] = h.Median, h.Tail

	m["ctrl.refit_s"] = perJob(total("ctrl.refit"))
	m["ctrl.gate_s"] = perJob(total("ctrl.gate"))
	m["ctrl.promote_s"] = perJob(total("ctrl.promote"))
	return m
}

// epochIntervals pairs each epoch-end event of model with the latest
// earlier event of the epoch before it and returns the gaps in ms, plus
// the number of epochs seen. Fits that overlap in time (the Table I grid
// runs cells concurrently) can pair across fits, so there it is an
// approximation.
func (t *tracer) epochIntervals(model string) ([]float64, int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	var gaps []float64
	n := 0
	last := make(map[int]time.Time) // epoch index -> latest end seen
	for _, e := range t.epochs {
		if e.model != model {
			continue
		}
		n++
		if prev, ok := last[e.epoch-1]; ok && e.epoch > 0 {
			gaps = append(gaps, float64(e.at.Sub(prev))/float64(time.Millisecond))
		}
		last[e.epoch] = e.at
	}
	return gaps, n
}

// handlerMS maps each request's trace ID to its server handler time in ms.
func (t *tracer) handlerMS() map[string]float64 {
	out := make(map[string]float64)
	for _, sp := range t.sink.Spans() {
		if sp.Name == "http.adapt" && sp.Trace != "" {
			out[sp.Trace] = float64(sp.Duration) / float64(time.Millisecond)
		}
	}
	return out
}

// writeSpans dumps every recorded span, with its self time, as a JSON array.
func (t *tracer) writeSpans(path string) error {
	spans := t.sink.Spans()
	self := selfTimes(spans)
	type spanOut struct {
		obs.SpanData
		SelfNs int64 `json:"selfNs"`
	}
	out := make([]spanOut, len(spans))
	for i, sp := range spans {
		out[i] = spanOut{SpanData: sp, SelfNs: int64(self[sp.ID])}
	}
	blob, err := json.Marshal(out)
	if err != nil {
		return err
	}
	return os.WriteFile(path, blob, 0o644)
}
