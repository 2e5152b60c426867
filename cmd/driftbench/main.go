// Command driftbench regenerates the paper's evaluation tables and
// analyses on the synthetic datasets:
//
//	driftbench -exp table1 -dataset 5gc            # Table I (one dataset)
//	driftbench -exp table2 -dataset 5gipc          # Table II ablation
//	driftbench -exp table3                         # Table III multi-target
//	driftbench -exp sensitivity -dataset 5gc       # §VI-C variant counts
//	driftbench -exp variance -dataset 5gipc        # §VI-C draw variance, per shot
//	driftbench -exp indomain -dataset 5gc          # §VI-B(a) in-domain check
//	driftbench -exp all                            # everything, both datasets
//
// -scale quick|bench|full trades fidelity for wall-clock time (see
// internal/experiments.Scale). -workers N bounds the parallel compute
// layer (0 = all cores, 1 = sequential) without changing any result bit.
//
// Observability:
//
//	driftbench -exp table1 -http :9090             # live Prometheus /metrics,
//	                                               # expvar, and pprof while
//	                                               # the tables run
//	driftbench -exp table1 -json report.json       # machine-readable run
//	                                               # report (results + the
//	                                               # final metrics snapshot)
package main

import (
	"cmp"
	"encoding/json"
	"expvar"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"strconv"
	"strings"
	"time"

	"netdrift/internal/experiments"
	"netdrift/internal/obs"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "driftbench:", err)
		os.Exit(1)
	}
}

// report is the -json run artifact: enough to archive a run or diff two.
type report struct {
	Experiment string         `json:"experiment"`
	Dataset    string         `json:"dataset"`
	Scale      string         `json:"scale"`
	Shots      []int          `json:"shots"`
	Repeats    int            `json:"repeats"`
	Seed       int64          `json:"seed"`
	WallSecs   float64        `json:"wall_seconds"`
	Results    map[string]any `json:"results"`
	// Draws holds each grid's per-draw records, keyed by its dataset, or
	// "table3" for Table III's grid, which ignores -dataset.
	Draws   map[string][]experiments.Draw `json:"draws"`
	Metrics []obs.Sample                  `json:"metrics"`
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("driftbench", flag.ContinueOnError)
	var (
		exp      = fs.String("exp", "table1", "experiment: table1|table2|table3|sensitivity|variance|indomain|all")
		ds       = fs.String("dataset", "5gc", "dataset: 5gc|5gipc (ignored by table3)")
		scale    = fs.String("scale", "bench", "compute scale: quick|bench|full")
		shots    = fs.String("shots", "1,5,10", "comma-separated target shots per class")
		repeats  = fs.Int("repeats", 3, "few-shot draws averaged per cell")
		seed     = fs.Int64("seed", 1, "base RNG seed")
		methods  = fs.String("methods", "", "comma-separated Table I method filter (empty = all)")
		workers  = fs.Int("workers", 0, "parallel workers for experiment cells and kernels (0 = all cores, 1 = sequential; results are bit-identical either way)")
		shards   = fs.Int("train-shards", 0, "gradient shards per training minibatch for the \"ours\" reconstructors (0/1 = one shard drawing from the model's own seeded streams; the shard count is part of the reproducibility key — it changes results; -workers never does)")
		verbose  = fs.Bool("v", false, "print per-cell progress")
		httpAddr = fs.String("http", "", "serve /metrics, /debug/vars, and /debug/pprof on this address while running (e.g. :9090)")
		jsonPath = fs.String("json", "", "write a machine-readable JSON run report to this file")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	sc, ok := experiments.ScaleByName(*scale)
	if !ok {
		return fmt.Errorf("unknown scale %q", *scale)
	}
	shotList, err := parseShots(*shots)
	if err != nil {
		return err
	}
	// Fail fast on an unwritable report path rather than after the run.
	if *jsonPath != "" {
		f, err := os.Create(*jsonPath)
		if err != nil {
			return fmt.Errorf("-json: %w", err)
		}
		f.Close()
	}
	start := time.Now()
	var progress func(string)
	if *verbose {
		progress = func(s string) {
			fmt.Fprintf(out, "[%7s] %s\n", time.Since(start).Round(time.Second), s)
		}
	}
	var filter []string
	if *methods != "" {
		filter = strings.Split(*methods, ",")
	}

	// One observer instruments the whole run; the summary and -json report
	// read it back, and -http exposes it live.
	observer := obs.New()
	var serveAddr string
	if *httpAddr != "" {
		ln, err := net.Listen("tcp", *httpAddr)
		if err != nil {
			return fmt.Errorf("-http listen: %w", err)
		}
		serveAddr = ln.Addr().String()
		mux := http.NewServeMux()
		mux.Handle("/metrics", observer.Registry)
		mux.Handle("/debug/vars", expvar.Handler())
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		srv := &http.Server{Handler: mux}
		go func() { _ = srv.Serve(ln) }()
		defer srv.Close()
		fmt.Fprintf(out, "serving metrics on http://%s/metrics\n", ln.Addr())
	}

	cfg := experiments.Config{
		Shots: shotList, Repeats: *repeats, Seed: *seed, Scale: sc,
		Methods: filter, Workers: *workers, TrainShards: *shards,
		Progress: progress, Obs: observer,
	}
	results := make(map[string]any)
	draws := make(map[string][]experiments.Draw)
	// show records one experiment's result and prints it; -exp all heads
	// each with its key.
	show := func(key string, res any, text string) {
		if *exp == "all" {
			fmt.Fprintf(out, "\n=== %s ===\n", strings.ReplaceAll(key, "/", " / "))
		}
		results[key] = res
		fmt.Fprint(out, text)
	}
	// runGrid runs the named experiments on one draw grid over dataset and
	// shows each one's view of it.
	runGrid := func(dataset string, kinds ...string) error {
		cfg.Dataset = dataset
		g, err := experiments.RunGrid(cfg, kinds...)
		if err != nil {
			return err
		}
		draws[cmp.Or(dataset, "table3")] = g.Draws
		for _, kind := range kinds {
			key := kind
			if dataset != "" {
				key = kind + "/" + dataset
			}
			switch kind {
			case "table1":
				res := g.Table1()
				show(key, res, experiments.FormatTable1(res))
			case "table2":
				res := g.Table2()
				show(key, res, experiments.FormatTable2(res))
			case "table3":
				res := g.Table3()
				show(key, res, experiments.FormatTable3(res))
			case "sensitivity":
				res := g.VariantCounts()
				show(key, res, experiments.FormatVariantCounts(res))
			case "variance":
				res := g.Variance()
				show(key, res, experiments.FormatVariance(res))
			}
		}
		return nil
	}
	inDomain := func(dataset string) error {
		cfg.Dataset = dataset
		res, err := experiments.RunInDomain(cfg)
		if err != nil {
			return err
		}
		show("indomain/"+dataset, res, experiments.FormatInDomain(res))
		return nil
	}

	switch *exp {
	case "all":
		// One grid per dataset: Table II's GAN row and the variance read
		// Table I's FS+GAN cells instead of training their own.
		for _, dataset := range []string{"5gc", "5gipc"} {
			if err := inDomain(dataset); err != nil {
				return err
			}
			if err := runGrid(dataset, "table1", "table2", "sensitivity", "variance"); err != nil {
				return err
			}
		}
		err = runGrid("", "table3")
	case "indomain":
		err = inDomain(*ds)
	default:
		err = runGrid(datasetFor(*exp, *ds), *exp)
	}
	if err != nil {
		return err
	}

	printSummary(out, observer)

	if *jsonPath != "" {
		rep := report{
			Experiment: *exp,
			Dataset:    datasetFor(*exp, *ds),
			Scale:      *scale,
			Shots:      shotList,
			Repeats:    *repeats,
			Seed:       *seed,
			WallSecs:   time.Since(start).Seconds(),
			Results:    results,
			Draws:      draws,
			Metrics:    observer.Registry.Snapshot(),
		}
		blob, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return fmt.Errorf("-json encode: %w", err)
		}
		if err := os.WriteFile(*jsonPath, append(blob, '\n'), 0o644); err != nil {
			return fmt.Errorf("-json write: %w", err)
		}
		fmt.Fprintf(out, "run report written to %s\n", *jsonPath)
	}
	if serveAddr != "" && scrapeForTest != nil {
		scrapeForTest(serveAddr)
	}
	return nil
}

// scrapeForTest, when non-nil, is invoked with the -http listen address
// after the run completes but before the server shuts down, so tests can
// exercise the live endpoints.
var scrapeForTest func(addr string)

// datasetFor is the dataset experiment exp runs on, which the result keys
// and the -json report record: blank for table3, which ignores -dataset,
// and for all, which runs both datasets.
func datasetFor(exp, ds string) string {
	if exp == "table3" || exp == "all" {
		return ""
	}
	return ds
}

// printSummary digests the run's metrics into the human-readable trailer:
// how much causal search ran and how quickly the reconstructors settled.
func printSummary(out io.Writer, o *obs.Observer) {
	reg := o.Registry
	marginal, _ := reg.Value(obs.MetricCITests, "kind", "marginal")
	conditional, _ := reg.Value(obs.MetricCITests, "kind", "conditional")
	searches, _ := reg.Value(obs.MetricFSSearches)
	fmt.Fprintf(out, "\n--- observability summary ---\n")
	fmt.Fprintf(out, "CI tests: %.0f total (%.0f marginal, %.0f conditional) across %.0f FS searches\n",
		marginal+conditional, marginal, conditional, searches)
	for _, model := range []string{"GAN", "NoCond", "VAE", "VanillaAE"} {
		fits, ok := reg.Value(obs.MetricTrainFits, "model", model)
		if !ok || fits == 0 {
			continue
		}
		// Every fit records one converged epoch, so Count() == fits > 0.
		conv := reg.Histogram(obs.MetricConvergedEpoch, obs.PipelineBuckets, "model", model)
		epochs, _ := reg.Value(obs.MetricTrainEpochs, "model", model)
		fmt.Fprintf(out, "%s: %.0f fits, %.0f epochs total, converged at epoch %.1f on average\n",
			model, fits, epochs, conv.Sum()/float64(conv.Count()))
	}
}

func parseShots(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		v, err := strconv.Atoi(part)
		if err != nil || v <= 0 {
			return nil, fmt.Errorf("invalid shot count %q", part)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no shot counts given")
	}
	return out, nil
}
