// Command bench is netdrift's end-to-end benchmark. It runs four workloads
// through the same public entry points the shipped binaries use
// (core.Adapter, experiments.RunTable1, the serve stack, the ctrl drift
// controller), checks their outputs, and prints end-to-end metrics or, in
// a traced run, per-layer ones. See README.md for the workloads, metrics
// and how to compare two sets of runs. From the repository root, where
// -compare finds BENCHMARK.json:
//
//	bash bench/run.sh -workload fit-5gc -seed 1 -seconds 20 -trace 0
//	bash bench/run.sh -compare old.jsonl new.jsonl
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// buildDir, relative to the working directory, holds everything a run
// writes: bundle files while it runs, span dumps after.
const buildDir = ".bench_build"

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics an untraced run reports on every workload; what
// a "job" and a "request" are on each workload is in README.md.
var endToEnd = []metricDef{
	{"setup_s", "s"},   // set-up time, median of several set-ups
	{"job_s", "s"},     // the workload's job, median over the run's jobs
	{"p50_ms", "ms"},   // median request latency
	{"alloc_mb", "MB"}, // heap allocated per job
}

// ladderRates are serve-open's offered rates in requests per second.
var ladderRates = []float64{200, 300, 400, 500, 600, 700, 800, 900}

// perLayer are the metrics a traced run reports on every workload; a layer
// the workload does not exercise reads 0.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"causal.fs_s", "s"}, {"causal.ci_tests", "count"}, {"causal.ci_test_us", "us"},
		{"core.recon_fit_s", "s"}, {"core.gan_epoch_ms", "ms"}, {"core.gan_epochs", "count"},
		{"core.fit_alloc_mb", "MB"}, {"core.adapt_us_per_row", "us"},
		{"models.mlp_fit_s", "s"}, {"models.mlp_fit_alloc_mb", "MB"}, {"models.predict_us_per_row", "us"},
	}
	for _, m := range table1Methods {
		defs = append(defs, metricDef{"baselines." + m.key + "_s", "s"})
	}
	defs = append(defs,
		metricDef{"experiments.busy_frac", "frac"}, metricDef{"experiments.cell_s_max", "s"},
		metricDef{"serve.batch_rows_mean", "rows"}, metricDef{"serve.batches", "count"},
		metricDef{"serve.queue_wait_ms_p50", "ms"}, metricDef{"serve.queue_wait_ms_tail", "ms"},
		metricDef{"serve.exec_ms_p50", "ms"},
		metricDef{"serve.handler_ms_p50", "ms"}, metricDef{"serve.handler_ms_tail", "ms"},
		metricDef{"serve.transport_ms_p50", "ms"},
		metricDef{"serve.decode_us_per_req", "us"}, metricDef{"serve.encode_us_per_req", "us"},
		metricDef{"serve.shed", "count"}, metricDef{"serve.degraded", "count"},
		metricDef{"ctrl.detect_s", "s"}, metricDef{"ctrl.refit_s", "s"}, metricDef{"ctrl.gate_s", "s"},
		metricDef{"ctrl.promote_s", "s"}, metricDef{"ctrl.refit_attempts", "count"},
		metricDef{"ctrl.gate_candidate_f1", "F1"}, metricDef{"ctrl.gate_incumbent_f1", "F1"},
		metricDef{"ctrl.ingest_ms_p50", "ms"}, metricDef{"ctrl.ingest_ms_tail", "ms"},
		metricDef{"monitor.check_ms", "ms"},
		metricDef{"loadgen.late_ms_tail", "ms"}, metricDef{"loadgen.backlog_max", "count"},
		metricDef{"loadgen.max_rps", "req/s"},
	)
	for _, r := range ladderRates {
		suffix := fmt.Sprintf(".r%.0f", r)
		defs = append(defs,
			metricDef{"loadgen.tail_ms" + suffix, "ms"},
			metricDef{"loadgen.late_ms_tail" + suffix, "ms"},
			metricDef{"loadgen.backlog_max" + suffix, "count"})
	}
	return append(defs,
		metricDef{"requests.tail_ms", "ms"},
		metricDef{"quality.fit_f1", "F1"}, metricDef{"quality.table1_f1", "F1"},
		metricDef{"trace.overhead_frac", "frac"})
}()

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// verdict is the last line a run prints.
type verdict struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// record is one run as -out appends it and -compare reads it.
type record struct {
	Workload   string            `json:"workload"`
	Seed       int64             `json:"seed"`
	Seconds    float64           `json:"seconds"`
	Trace      int               `json:"trace"`
	NumCPU     int               `json:"num_cpu"`
	GOMAXPROCS int               `json:"gomaxprocs"`
	GoVersion  string            `json:"go"`
	Commit     string            `json:"commit"`
	Detail     map[string]string `json:"detail,omitempty"`
	Probe      float64           `json:"probe_s,omitempty"`
	verdict
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	var (
		workload = fs.String("workload", "", "workload to run ("+strings.Join(workloadNames(), ", ")+") or all")
		seed     = fs.Int64("seed", 1, "workload seed; every input is generated from it")
		seconds  = fs.Float64("seconds", 20, "length of each workload's timed window in seconds")
		traced   = fs.Int("trace", 0, "1 = traced run: per-layer metrics instead of end-to-end ones")
		outPath  = fs.String("out", "", "append each run's result record, one JSON line, to this file")
		compare  = fs.Bool("compare", false, "compare two result files by BENCHMARK.json's bounds: -compare old.jsonl new.jsonl")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *compare {
		if fs.NArg() != 2 {
			return errors.New("-compare needs two result files: old.jsonl new.jsonl")
		}
		return runCompare(out, "BENCHMARK.json", fs.Arg(0), fs.Arg(1))
	}
	if *traced != 0 && *traced != 1 {
		return fmt.Errorf("-trace must be 0 or 1, got %d", *traced)
	}
	if *seconds <= 0 {
		return fmt.Errorf("-seconds must be positive, got %g", *seconds)
	}
	if procs, cpus := runtime.GOMAXPROCS(0), runtime.NumCPU(); procs > cpus {
		return fmt.Errorf("GOMAXPROCS=%d exceeds the %d CPUs: oversubscribed timings are not comparable", procs, cpus)
	}
	var names []string
	switch {
	case *workload == "all":
		names = workloadNames()
	case findWorkload(*workload) != nil:
		names = []string{*workload}
	default:
		return fmt.Errorf("unknown -workload %q (want %s or all)", *workload, strings.Join(workloadNames(), ", "))
	}

	cfg := defaultConfig()
	cfg.Seconds = *seconds
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return err
	}
	work, err := os.MkdirTemp(buildDir, "work-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(work)
	cfg.WorkDir = work

	for _, name := range names {
		rec, tr, err := measure(findWorkload(name), cfg, *seed, *traced == 1)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		fmt.Fprintf(out, "workload=%s seed=%d seconds=%g trace=%d num_cpu=%d gomaxprocs=%d go=%s commit=%s\n",
			rec.Workload, rec.Seed, rec.Seconds, rec.Trace, rec.NumCPU, rec.GOMAXPROCS, rec.GoVersion, rec.Commit)
		for _, k := range sortedKeys(rec.Detail) {
			fmt.Fprintf(out, "  %s: %s\n", k, rec.Detail[k])
		}
		for _, d := range reported(*traced == 1) {
			fmt.Fprintf(out, "%s %.6g %s\n", d.name, rec.Metrics[d.name].Value, d.unit)
		}
		if tr != nil {
			path := filepath.Join(buildDir, fmt.Sprintf("spans-%s-%d.json", name, *seed))
			if err := tr.writeSpans(path); err != nil {
				return fmt.Errorf("write spans: %w", err)
			}
		}
		if *outPath != "" {
			if err := appendRecord(*outPath, rec); err != nil {
				return err
			}
		}
		line, err := json.Marshal(rec.verdict)
		if err != nil {
			return err
		}
		fmt.Fprintln(out, string(line))
	}
	return nil
}

func reported(traced bool) []metricDef {
	if traced {
		return perLayer
	}
	return endToEnd
}

// measure runs one workload, untraced or traced, and folds the outcome of
// every pass it ran into the record.
func measure(w *workload, cfg config, seed int64, traced bool) (record, *tracer, error) {
	rec := record{
		Workload: w.name, Seed: seed, Seconds: cfg.Seconds, NumCPU: runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(), Commit: commit(),
		Detail: make(map[string]string),
	}
	rec.Metrics = make(map[string]metric)
	var tr *tracer
	var passes []*phase
	var err error
	if traced {
		rec.Trace = 1
		tr = newTracer()
		passes, err = measureTraced(w, cfg, seed, tr, &rec)
	} else {
		passes, err = measureUntraced(w, cfg, seed, &rec)
	}
	if err != nil {
		return rec, nil, err
	}
	rec.Correct = true
	for _, p := range passes {
		rec.Attempted += p.attempted
		rec.Failed += p.failed
		rec.Correct = rec.Correct && p.correct
		for k, v := range p.detail {
			rec.Detail[k] = v
		}
	}
	return rec, tr, nil
}

// measureUntraced does several set-ups (setup_s is their median), then the
// timed phase on the last one, bracketed by speed probes, and records the
// end-to-end metrics.
func measureUntraced(w *workload, cfg config, seed int64, rec *record) ([]*phase, error) {
	probes := probeN(5)
	// At least cfg.Setups set-ups, and more while they add up to under a
	// second, so a short set-up is timed often enough to settle. Each starts
	// on a collected heap, so none pays for the garbage of the one before.
	var setups []float64
	var e env
	for total := 0.0; len(setups) < cfg.Setups || (total < 1 && len(setups) < 200); {
		if e != nil {
			e.close()
			e = nil
		}
		runtime.GC()
		start := time.Now()
		var err error
		if e, err = w.setup(cfg, seed, nil); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
		total += setups[len(setups)-1]
	}
	p, err := timed(e, nil)
	if err != nil {
		return nil, err
	}
	rec.Probe = median(append(probes, probeN(5)...))
	lat := summarize(p.lat)
	setup, job := median(setups), median(p.jobs)
	rec.Detail["measured"] = fmt.Sprintf("setup %.4g s, job %.4g s, p50 %.4g ms at probe %.4g s (reference %.4g s)",
		setup, job, lat.Median, rec.Probe, probeReference)
	rec.Detail["requests"] = fmt.Sprintf("%d, tail %s %.4g ms", lat.N, lat.TailAt, lat.Tail)
	rec.Detail["jobs"] = fmt.Sprint(len(p.jobs))
	// CPU-bound times are reported at reference speed; see probe.
	scale := probeReference / rec.Probe
	atRef := func(v float64, cpuBound bool) float64 {
		if cpuBound {
			return v * scale
		}
		return v
	}
	values := map[string]float64{
		"setup_s":  atRef(setup, true),
		"job_s":    atRef(job, w.cpuJob),
		"p50_ms":   atRef(lat.Median, w.cpuRequests),
		"alloc_mb": p.allocMB,
	}
	for _, d := range endToEnd {
		rec.Metrics[d.name] = metric{Value: values[d.name], Unit: d.unit}
	}
	return []*phase{p}, nil
}

// measureTraced runs the timed phase untraced and then traced, on fresh
// set-ups with the same seed, so the ratio of their job times is the
// tracing overhead, and records the per-layer metrics of the traced pass.
func measureTraced(w *workload, cfg config, seed int64, tr *tracer, rec *record) ([]*phase, error) {
	base, err := setupAndRun(w, cfg, seed, nil)
	if err != nil {
		return nil, err
	}
	p, err := setupAndRun(w, cfg, seed, tr)
	if err != nil {
		return nil, err
	}
	var jobTotal float64
	for _, j := range p.jobs {
		jobTotal += j
	}
	values := tr.layers(len(p.jobs), float64(workers())*jobTotal)
	for k, v := range p.layers {
		values[k] = v
	}
	values["requests.tail_ms"] = summarize(p.lat).Tail
	values["trace.overhead_frac"] = median(p.jobs)/median(base.jobs) - 1
	known := make(map[string]bool, len(perLayer))
	for _, d := range perLayer {
		known[d.name] = true
		rec.Metrics[d.name] = metric{Value: values[d.name], Unit: d.unit}
	}
	for k := range values {
		if !known[k] {
			return nil, fmt.Errorf("per-layer metric %q is not declared", k)
		}
	}
	return []*phase{base, p}, nil
}

func setupAndRun(w *workload, cfg config, seed int64, tr *tracer) (*phase, error) {
	e, err := w.setup(cfg, seed, tr)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	return timed(e, tr)
}

// timed runs the timed phase on a fresh heap and releases the set-up.
func timed(e env, tr *tracer) (*phase, error) {
	defer e.close()
	runtime.GC()
	p, err := e.run(tr)
	if err != nil {
		return nil, err
	}
	if len(p.jobs) == 0 {
		return nil, errors.New("the timed phase completed no job")
	}
	return p, nil
}

// commit is the VCS revision the binary was built from, when the build
// saw one.
func commit() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

func appendRecord(path string, rec record) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// The host's speed drifts: on a shared machine the same computation takes
// up to 40% longer for minutes at a time, which no amount of repetition
// inside a 20-second run averages out. Each untraced run therefore times a
// fixed scalar loop, the probe, five times before set-up and five times
// after the timed phase, and reports CPU-bound times (set-ups, offline jobs,
// in-process requests) scaled by probeReference/probe, that is at the speed
// at which the probe takes probeReference. The loop touches neither the
// heap nor the program under test, so nothing the program does can change
// it. Latencies of HTTP requests, which mostly wait on the coalescer's
// MaxWait timer, are reported as measured. The unscaled values are printed
// with every run.
const probeReference = 0.047 // seconds; the probe's median on an idle x86-64 host

var probeSink float64

func probe() float64 {
	start := time.Now()
	x := 1.0
	for k := 0; k < 20_000_000; k++ {
		x = x*1.0000001 + 1e-9
	}
	probeSink += x
	return time.Since(start).Seconds()
}

func probeN(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = probe()
	}
	return xs
}
