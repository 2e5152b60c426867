package main

import (
	"runtime"
	"time"

	"netdrift/internal/experiments"
)

// workload is one benchmark input set. setup builds everything the timed
// phase needs from the seed; with a tracer it also instruments the program
// for a traced pass.
type workload struct {
	name  string
	setup func(cfg config, seed int64, tr *tracer) (env, error)
	// cpuJob and cpuRequests mark job_s and p50_ms as CPU-bound, so they
	// are reported at the probe's reference speed (see probe).
	cpuJob, cpuRequests bool
}

// env is a set-up workload, ready for its timed phase.
type env interface {
	// run executes the timed phase, then checks the outputs.
	run(tr *tracer) (*phase, error)
	// close releases everything set-up acquired.
	close()
}

// phase is what one timed phase measured.
type phase struct {
	jobs    []float64 // seconds per job
	lat     []float64 // request latencies in ms
	allocMB float64   // heap MB allocated per job (process-wide)

	attempted, failed int  // operations; failures include wrong outputs
	correct           bool // every output check passed

	layers map[string]float64 // workload-specific per-layer metrics (traced)
	detail map[string]string  // context printed with the result
}

var workloads = []*workload{
	{name: "fit-5gc", setup: setupFit, cpuJob: true, cpuRequests: true},
	{name: "table1-quick", setup: setupTable1, cpuJob: true, cpuRequests: true},
	{name: "serve-open", setup: setupServe},
	{name: "drift-campaign", setup: setupDrift, cpuJob: true},
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// config sizes every workload. defaultConfig is what the benchmark runs;
// tests shrink it.
type config struct {
	Seconds float64 // timed window
	Setups  int     // set-ups per untraced run, at least; setup_s is their median
	WorkDir string  // bundle files written during a run

	Quick experiments.Scale // fit-5gc, table1-quick, serve-open's bundle
	Drift experiments.Scale // drift-campaign

	InferPasses     int           // fit-5gc passes over the test rows per pipeline
	Table1Shots     []int         // table1-quick
	Burst           int           // requests in serve-open's closed-loop burst
	WatchFor        time.Duration // controller watchdog period after promote
	CampaignTimeout time.Duration // drift-campaign gives up after this long
}

// The workloads' fixed parameters.
const (
	shots           = 10                     // few-shot target samples per class
	pipelineSeconds = 2.0                    // fit-5gc: a pipeline's expected length, which sets how many a run fits
	inferBatch      = 32                     // fit-5gc micro-batch rows: the coalescer's MaxBatch
	refRate         = 300.0                  // serve-open: the rate p50_ms is measured at
	refShare        = 0.75                   // share of Seconds the reference stream lasts
	stepShare       = 0.05                   // share of Seconds each other ladder step lasts (traced runs)
	stepGap         = 100 * time.Millisecond // idle time between streams, so backlogs do not carry over
	limitMS         = 20.0                   // ladder latency limit on the tail percentile
	driftRate       = 300.0                  // drift-campaign adapt requests per second
	ingestRows      = 16                     // rows per /v1/ingest request
	ingestEvery     = 20 * time.Millisecond  // ingest period
	driftWindow     = 64                     // controller drift window in rows
	staleGANEpochs  = 2                      // the stale incumbent's adapter
	staleMLPEpochs  = 6                      // and classifier
)

func defaultConfig() config {
	return config{
		Seconds: 20, Setups: 3,
		Quick: experiments.QuickScale, Drift: experiments.BenchScale,
		InferPasses: 4, Table1Shots: []int{1, 5, 10}, Burst: 2048,
		WatchFor: 3 * time.Second, CampaignTimeout: 120 * time.Second,
	}
}

// workers is the width of the program's parallel stages: one per CPU.
func workers() int { return runtime.NumCPU() }

// conns is the load generator's connection count: one per CPU, at most two.
func conns() int { return min(2, runtime.NumCPU()) }

// window is the timed window, Seconds, as a duration.
func (c config) window() time.Duration {
	return time.Duration(c.Seconds * float64(time.Second))
}

// subSeed derives the seed of a run's k-th input from the run seed.
func subSeed(seed int64, k int) int64 {
	return seed*1_000_003 + int64(k)*7919 + 1
}
