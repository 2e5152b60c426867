// Command driftserve serves a fitted adaptation bundle over HTTP with
// micro-batch request coalescing and lock-free artifact hot-swap.
//
// Build a serving bundle from a synthetic drift pair:
//
//	driftserve -mkbundle -bundle fixture.json -dataset 5gc -scale quick
//
// Serve it:
//
//	driftserve -bundle fixture.json -addr :8100
//	curl -s localhost:8100/healthz
//	curl -s -X POST localhost:8100/v1/adapt -d '{"rows":[[...]],"predict":true}'
//	curl -s localhost:8100/metrics
//
// Load it (closed-loop load generator against an in-process server, ending
// with a cross-codec bit-identity probe that fails the run on a mismatch):
//
//	driftserve -bundle fixture.json -loadgen -conns 4 -duration 10s
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"netdrift/internal/core"
	"netdrift/internal/ctrl"
	"netdrift/internal/dataset"
	"netdrift/internal/experiments"
	"netdrift/internal/fault"
	"netdrift/internal/models"
	"netdrift/internal/monitor"
	"netdrift/internal/obs"
	"netdrift/internal/serve"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "driftserve:", err)
		os.Exit(1)
	}
}

// Wire codec names accepted by -codec (and used as loadgen stage labels).
const (
	codecJSON   = "json"
	codecBinary = "binary"
)

type config struct {
	Bundle   string
	Addr     string
	MaxBatch int
	Workers  int

	// Resilience knobs.
	FaultPlan         string
	MaxQueue          int
	RequestTimeout    time.Duration
	BreakerThreshold  int
	BreakerBackoff    time.Duration
	BreakerMaxBackoff time.Duration
	DrainTimeout      time.Duration

	// Observability knobs.
	TracePath       string
	FlightCap       int
	FlightSnap      string
	SLOLatency      time.Duration
	SLOAvailability float64

	Dataset   string
	ScaleName string
	Scale     experiments.Scale
	Seed      int64
	Shots     int
	ID        string
	Format    string
	Convert   string

	Conns      int
	Duration   time.Duration
	RowsPerReq int
	Codec      string

	// Drift-controller knobs (-ctrl serving mode and -ctrlcheck).
	Ctrl           bool
	CtrlWindow     int
	CtrlCooldown   time.Duration
	CtrlMargin     float64
	CtrlWatch      time.Duration
	CtrlBundleDir  string
	CtrlCheckpoint string
}

// breakerConfig maps the CLI knobs onto a serve.BreakerConfig.
func (c config) breakerConfig() serve.BreakerConfig {
	return serve.BreakerConfig{
		FailThreshold: c.BreakerThreshold,
		BaseBackoff:   c.BreakerBackoff,
		MaxBackoff:    c.BreakerMaxBackoff,
		Seed:          c.Seed,
	}
}

// faultInjector parses -faults into an armed injector, or nil when the
// plan is empty (the production default: no chaos).
func (c config) faultInjector() (*fault.Injector, error) {
	if c.FaultPlan == "" {
		return nil, nil
	}
	plan, err := fault.ParsePlan(c.FaultPlan)
	if err != nil {
		return nil, fmt.Errorf("-faults: %w", err)
	}
	if err := fault.ValidatePlan(plan); err != nil {
		return nil, fmt.Errorf("-faults: %w", err)
	}
	inj := fault.New(c.Seed)
	inj.Load(plan)
	return inj, nil
}

// serveOptions assembles the coalescer options shared by serve, loadgen,
// and chaoscheck modes.
func (c config) serveOptions(o *obs.Observer, inj *fault.Injector) serve.Options {
	return serve.Options{
		MaxBatch: c.MaxBatch, Workers: c.Workers,
		MaxQueue: c.MaxQueue, RequestTimeout: c.RequestTimeout,
		Breaker: c.breakerConfig(), Faults: inj, Obs: o,
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("driftserve", flag.ContinueOnError)
	var (
		bundle   = fs.String("bundle", "bundle.json", "bundle file to serve (or write with -mkbundle)")
		addr     = fs.String("addr", ":8100", "HTTP listen address")
		maxBatch = fs.Int("max-batch", 32, "largest coalesced batch in rows")
		workers  = fs.Int("workers", 1, "batch executor goroutines")

		mkbundle = fs.Bool("mkbundle", false, "fit a bundle from a synthetic drift pair and write it to -bundle instead of serving")
		ds       = fs.String("dataset", "5gc", "dataset for -mkbundle/-loadgen rows: 5gc|5gipc")
		scale    = fs.String("scale", "quick", "compute scale for -mkbundle/-loadgen: quick|bench|full")
		seed     = fs.Int64("seed", 1, "base RNG seed for -mkbundle/-loadgen")
		shots    = fs.Int("shots", 10, "few-shot target samples per class for -mkbundle")
		id       = fs.String("id", "", "bundle id (-mkbundle; default derived from dataset/scale/seed)")
		format   = fs.String("format", "json", "bundle encoding for -mkbundle/-convert: json|binary (loads always sniff)")
		convert  = fs.String("convert", "", "re-encode the bundle at this path into -bundle using -format, then exit")

		proberow = fs.Bool("proberow", false, "print one dataset test row as a JSON array (for hand-crafting /v1/adapt requests) and exit")

		loadgen    = fs.Bool("loadgen", false, "run the closed-loop load generator against an in-process server instead of serving")
		chaoscheck = fs.Bool("chaoscheck", false, "run the chaos acceptance check (fault storm + torn-response audit + recovery probe) and exit non-zero on any violation")
		conns      = fs.Int("conns", 4, "concurrent closed-loop clients for -loadgen/-chaoscheck")
		duration   = fs.Duration("duration", 5*time.Second, "load generation duration")
		rowsPerReq = fs.Int("rows-per-req", 8, "rows per request for -loadgen")
		codec      = fs.String("codec", "json", "wire codec the -loadgen clients speak: json|binary")

		obsdump = fs.String("obsdump", "", "pretty-print a flight-recorder snapshot file and exit")

		ctrlOn         = fs.Bool("ctrl", false, "run the closed-loop drift controller alongside serving (POST telemetry to /v1/ingest)")
		ctrlcheck      = fs.Bool("ctrlcheck", false, "run the closed-loop drift-response acceptance check (drift storm -> refit -> gate -> hot-swap -> rollback -> resume) and exit non-zero on any violation")
		ctrlWindow     = fs.Int("ctrl-window", 64, "drift-check sliding window in telemetry rows")
		ctrlCooldown   = fs.Duration("ctrl-cooldown", 30*time.Second, "minimum pause between drift-response campaigns")
		ctrlMargin     = fs.Float64("ctrl-margin", 1.0, "macro-F1 points a refit candidate must beat the incumbent by at the shadow gate")
		ctrlWatch      = fs.Duration("ctrl-watch", 2*time.Minute, "how long a promotion stays under the rollback watchdog")
		ctrlBundleDir  = fs.String("ctrl-bundledir", ".", "directory promoted bundle files are written to")
		ctrlCheckpoint = fs.String("ctrl-checkpoint", "", "controller checkpoint file for crash-safe resume (empty = no checkpointing)")

		trace      = fs.String("trace", "", `span sink: write one JSON line per finished span to this file ("-" = stdout; empty = tracing off, the zero-allocation path)`)
		flightCap  = fs.Int("flightrec-cap", obs.DefaultFlightCapacity, "flight-recorder ring capacity in events (0 = recorder off)")
		flightSnap = fs.String("flightrec-snap", "flightrec.json", "file the flight ring is auto-snapshotted to on incidents (executor panic, breaker open); empty disarms")
		sloLatency = fs.Duration("slo-latency", 250*time.Millisecond, "SLO latency objective: slower successful requests burn the error budget")
		sloAvail   = fs.Float64("slo-availability", 0.999, "SLO availability objective in (0,1); the error budget is 1-availability")

		faults            = fs.String("faults", "", `deterministic fault plan, e.g. "batch.exec:err=0.2,panic=0.05,slow=1ms@0.3;http.adapt:err=0.1" (sites: `+strings.Join(fault.KnownSites(), ", ")+`)`)
		maxQueue          = fs.Int("max-queue", 4096, "admission queue bound in rows; excess load is shed with 429")
		requestTimeout    = fs.Duration("request-timeout", 0, "per-request deadline applied by the server (0 = none)")
		breakerThreshold  = fs.Int("breaker-threshold", 3, "consecutive failures that trip a circuit breaker open")
		breakerBackoff    = fs.Duration("breaker-backoff", 100*time.Millisecond, "base breaker backoff (doubles per trip, jittered)")
		breakerMaxBackoff = fs.Duration("breaker-max-backoff", 30*time.Second, "breaker backoff ceiling")
		drainTimeout      = fs.Duration("drain-timeout", 10*time.Second, "graceful shutdown drain deadline on SIGTERM/SIGINT")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	sc, ok := experiments.ScaleByName(*scale)
	if !ok {
		return fmt.Errorf("unknown scale %q", *scale)
	}
	cfg := config{
		Bundle: *bundle, Addr: *addr, MaxBatch: *maxBatch, Workers: *workers,
		FaultPlan: *faults, MaxQueue: *maxQueue, RequestTimeout: *requestTimeout,
		BreakerThreshold: *breakerThreshold, BreakerBackoff: *breakerBackoff,
		BreakerMaxBackoff: *breakerMaxBackoff, DrainTimeout: *drainTimeout,
		TracePath: *trace, FlightCap: *flightCap, FlightSnap: *flightSnap,
		SLOLatency: *sloLatency, SLOAvailability: *sloAvail,
		Dataset: *ds, ScaleName: *scale, Scale: sc, Seed: *seed, Shots: *shots, ID: *id,
		Format: *format, Convert: *convert,
		Conns: *conns, Duration: *duration, RowsPerReq: *rowsPerReq,
		Codec: *codec,
		Ctrl:  *ctrlOn, CtrlWindow: *ctrlWindow, CtrlCooldown: *ctrlCooldown,
		CtrlMargin: *ctrlMargin, CtrlWatch: *ctrlWatch,
		CtrlBundleDir: *ctrlBundleDir, CtrlCheckpoint: *ctrlCheckpoint,
	}
	if cfg.Format != string(serve.FormatJSON) && cfg.Format != string(serve.FormatBinary) {
		return fmt.Errorf("unknown -format %q (want json or binary)", cfg.Format)
	}
	if cfg.Codec != codecJSON && cfg.Codec != codecBinary {
		return fmt.Errorf("unknown -codec %q (want json or binary)", cfg.Codec)
	}
	switch {
	case *obsdump != "":
		return runObsDump(out, *obsdump)
	case *convert != "":
		return runConvert(out, cfg)
	case *mkbundle:
		return runMkBundle(out, cfg)
	case *proberow:
		return runProbeRow(out, cfg)
	case *loadgen:
		return runLoadgen(out, cfg)
	case *chaoscheck:
		return runChaosCheck(out, cfg)
	case *ctrlcheck:
		return runCtrlCheck(out, cfg)
	default:
		return runServe(out, cfg)
	}
}

// slo maps the CLI knobs onto the obs.SLO objective.
func (c config) slo() obs.SLO {
	return obs.SLO{LatencyObjective: c.SLOLatency.Seconds(), Availability: c.SLOAvailability}
}

// runProbeRow prints the first target-test row of the configured dataset
// as a JSON array, sized to match what a bundle fit on that dataset
// expects in /v1/adapt requests.
func runProbeRow(out io.Writer, cfg config) error {
	pair, err := experiments.MakePair(cfg.Dataset, cfg.Scale, cfg.Seed)
	if err != nil {
		return err
	}
	if len(pair.TargetTest.X) == 0 {
		return fmt.Errorf("dataset %q has no target test rows", cfg.Dataset)
	}
	blob, err := json.Marshal(pair.TargetTest.X[0])
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(out, string(blob))
	return err
}

// runMkBundle fits the paper's FS+GAN adapter and downstream MLP on a
// synthetic drift pair and writes them as one serving bundle.
func runMkBundle(out io.Writer, cfg config) error {
	pair, err := experiments.MakePair(cfg.Dataset, cfg.Scale, cfg.Seed)
	if err != nil {
		return err
	}
	drawRng := rand.New(rand.NewSource(cfg.Seed + 977))
	support, _, err := pair.TargetTrain.FewShot(cfg.Shots, pair.UseGroups, drawRng)
	if err != nil {
		return err
	}
	ad := core.NewAdapter(core.AdapterConfig{
		Mode:  core.ModeFSRecon,
		Recon: core.ReconGAN,
		GAN:   core.GANConfig{Epochs: cfg.Scale.GANEpochs},
		Seed:  cfg.Seed,
	})
	start := time.Now()
	if err := ad.Fit(pair.Source, support); err != nil {
		return fmt.Errorf("fit adapter: %w", err)
	}
	train, err := ad.TrainingData(pair.Source)
	if err != nil {
		return err
	}
	clf := models.NewMLPClassifier(models.Options{
		Seed: cfg.Seed, Epochs: cfg.Scale.ClassifierEpochs,
	})
	if err := clf.Fit(train.X, train.Y, pair.NumClasses); err != nil {
		return fmt.Errorf("fit classifier: %w", err)
	}
	bundleID := cfg.ID
	if bundleID == "" {
		bundleID = fmt.Sprintf("%s-%s-seed%d", cfg.Dataset, cfg.ScaleName, cfg.Seed)
	}
	if err := serve.WriteBundleFileFormat(cfg.Bundle, bundleID, ad, clf, serve.BundleFormat(cfg.Format)); err != nil {
		return err
	}
	fmt.Fprintf(out, "bundle %q written to %s (format %s, %d variant / %d invariant features, fit in %s)\n",
		bundleID, cfg.Bundle, cfg.Format, len(ad.VariantFeatures()), len(ad.InvariantFeatures()),
		time.Since(start).Round(time.Millisecond))
	return nil
}

// runConvert re-encodes an existing bundle (either format, sniffed on
// load) into -bundle using -format. Conversion is lossless: both codecs
// serialize the same blob, so a JSON→binary→JSON round trip is identical.
func runConvert(out io.Writer, cfg config) error {
	src, err := serve.LoadBundleFile(cfg.Convert)
	if err != nil {
		return fmt.Errorf("-convert %s: %w", cfg.Convert, err)
	}
	if err := serve.WriteBundleFileFormat(cfg.Bundle, src.ID, src.Adapter, src.Classifier, serve.BundleFormat(cfg.Format)); err != nil {
		return err
	}
	fmt.Fprintf(out, "bundle %q converted: %s -> %s (format %s)\n", src.ID, cfg.Convert, cfg.Bundle, cfg.Format)
	return nil
}

// buildStack assembles the full hardened serving stack from cfg: registry
// with a load breaker (and chaos, when armed), coalescer with admission
// control + executor breaker, HTTP handler tree, plus the observability
// layer — flight recorder (armed for incident snapshots), optional span
// sink, SLO trackers, and chaos wiring into both.
func buildStack(cfg config) (*obs.Observer, *serve.Registry, *serve.Coalescer, *serve.Server, *fault.Injector, error) {
	o := obs.New()
	if cfg.FlightCap != 0 {
		o.Flight = obs.NewFlightRecorder(cfg.FlightCap)
		o.Flight.CountEvents(o.Registry.Counter(obs.MetricFlightEvents))
		if cfg.FlightSnap != "" {
			o.Flight.SetAutoSnapshot(cfg.FlightSnap, 0)
		}
	}
	if cfg.TracePath != "" {
		w := io.Writer(os.Stdout)
		if cfg.TracePath != "-" {
			f, err := os.Create(cfg.TracePath)
			if err != nil {
				return nil, nil, nil, nil, nil, fmt.Errorf("-trace: %w", err)
			}
			w = f // lives for the process; closed by exit
		}
		sink := obs.NewJSONLinesSink(w)
		sink.CountDrops(o.Registry.Counter(obs.MetricSpanDrops))
		// Span completions also land in the flight ring, so a snapshot
		// shows the request timeline alongside the control events.
		o.Spans = o.Flight.SpanSink(sink)
	}
	inj, err := cfg.faultInjector()
	if err != nil {
		return nil, nil, nil, nil, nil, err
	}
	reg := serve.NewRegistry(o)
	reg.SetBreaker(serve.NewBreaker("bundle_load", cfg.breakerConfig(), o))
	reg.SetFaults(inj)
	co := serve.NewCoalescer(reg, cfg.serveOptions(o, inj))
	srv := serve.NewServer(reg, co, o)
	srv.ConfigureSLO(cfg.slo())
	serve.WireChaos(inj, o, srv.SLOSet())
	return o, reg, co, srv, inj, nil
}

// buildCtrl assembles the closed-loop drift controller for -ctrl serving
// mode: detector fitted on the source domain, held-out target-test rows as
// the shadow gate's probe set, and the paper's FS+GAN refit (classifier
// carried forward, never retrained). Telemetry arrives via POST /v1/ingest.
func buildCtrl(cfg config, o *obs.Observer, reg *serve.Registry, srv *serve.Server, inj *fault.Injector) (*ctrl.Controller, error) {
	pair, err := experiments.MakePair(cfg.Dataset, cfg.Scale, cfg.Seed)
	if err != nil {
		return nil, err
	}
	det := monitor.New(monitor.Config{})
	if err := det.Fit(pair.Source.X); err != nil {
		return nil, fmt.Errorf("fit drift detector: %w", err)
	}
	probe := pair.TargetTest
	if len(probe.X) > 256 {
		probe = &dataset.Dataset{X: probe.X[:256], Y: probe.Y[:256]}
	}
	refit := func(ctx context.Context, shots *dataset.Dataset, epoch int) (*ctrl.Candidate, error) {
		ad := core.NewAdapter(core.AdapterConfig{
			Mode:  core.ModeFSRecon,
			Recon: core.ReconGAN,
			GAN:   core.GANConfig{Epochs: cfg.Scale.GANEpochs},
			Seed:  cfg.Seed + int64(epoch),
		})
		if err := ad.Fit(pair.Source, shots); err != nil {
			return nil, err
		}
		return &ctrl.Candidate{ID: fmt.Sprintf("refit-epoch%d", epoch), Adapter: ad}, nil
	}
	c, err := ctrl.New(ctrl.Config{
		Detector: det, Registry: reg, Refit: refit,
		Probe: probe, NumClasses: pair.NumClasses,
		WindowSize: cfg.CtrlWindow, Cooldown: cfg.CtrlCooldown,
		ShotsPerClass: cfg.Shots, MinWinMargin: cfg.CtrlMargin,
		BundleDir: cfg.CtrlBundleDir, BundleFormat: serve.BundleFormat(cfg.Format),
		InitialBundlePath: cfg.Bundle,
		SLO:               srv.SLOSet(), WatchFor: cfg.CtrlWatch,
		CheckpointPath: cfg.CtrlCheckpoint,
		Seed:           cfg.Seed, Faults: inj, Obs: o,
	})
	if err != nil {
		return nil, err
	}
	srv.SetIngest(c)
	srv.SetCtrlStatus(func() any { return c.Status() })
	return c, nil
}

// runObsDump pretty-prints a flight-recorder snapshot file (written by
// /debug/flightrec, an incident auto-snapshot, or a chaoscheck failure) as
// a human-readable timeline.
func runObsDump(out io.Writer, path string) error {
	blob, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var snap obs.FlightSnapshot
	if err := json.Unmarshal(blob, &snap); err != nil {
		return fmt.Errorf("%s: not a flight-recorder snapshot: %w", path, err)
	}
	dropped := int64(snap.LastSeq) - int64(len(snap.Events))
	fmt.Fprintf(out, "flight recorder snapshot %s\n", path)
	fmt.Fprintf(out, "  reason=%s taken=%s events=%d/%d capacity=%d overwritten=%d\n",
		snap.Reason, snap.TakenAt.Format(time.RFC3339Nano), len(snap.Events), snap.LastSeq, snap.Capacity, max(dropped, 0))
	for _, ev := range snap.Events {
		line := fmt.Sprintf("  %6d  %s  %-8s %-14s", ev.Seq,
			time.Unix(0, ev.Nanos).Format("15:04:05.000000"), ev.Kind, ev.Name)
		if ev.Trace != "" {
			line += "  trace=" + ev.Trace
		}
		if ev.Detail != "" {
			line += "  " + ev.Detail
		}
		fmt.Fprintln(out, line)
	}
	return nil
}

// runServe loads the bundle and serves until SIGTERM/SIGINT, then drains
// in-flight requests for up to -drain-timeout before exiting.
func runServe(out io.Writer, cfg config) error {
	o, reg, co, handler, inj, err := buildStack(cfg)
	if err != nil {
		return err
	}
	defer co.Close()
	b, err := reg.LoadFile(cfg.Bundle)
	if err != nil {
		return err
	}
	if cfg.Ctrl {
		dc, err := buildCtrl(cfg, o, reg, handler, inj)
		if err != nil {
			return err
		}
		dc.Start()
		defer dc.Close()
		fmt.Fprintf(out, "drift controller armed: window %d, cooldown %s, watch %s, margin %.1f F1 pts (telemetry -> POST %s)\n",
			cfg.CtrlWindow, cfg.CtrlCooldown, cfg.CtrlWatch, cfg.CtrlMargin, serve.EndpointIngest)
	}
	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "serving bundle %q on http://%s (max-batch %d, workers %d, max-queue %d)\n",
		b.ID, ln.Addr(), cfg.MaxBatch, cfg.Workers, cfg.MaxQueue)
	if inj != nil {
		fmt.Fprintf(out, "chaos armed: %s\n", cfg.FaultPlan)
	}
	if cfg.TracePath != "" {
		fmt.Fprintf(out, "tracing spans to %s (header %s)\n", cfg.TracePath, serve.TraceHeader)
	}
	srv := &http.Server{Handler: handler}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()
	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(ln) }()
	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
	}
	stop() // a second signal now kills the process the default way
	fmt.Fprintf(out, "shutdown signal received, draining for up to %s\n", cfg.DrainTimeout)
	drainCtx, cancel := context.WithTimeout(context.Background(), cfg.DrainTimeout)
	defer cancel()
	if err := srv.Shutdown(drainCtx); err != nil {
		// Drain deadline blown: some connections were cut. Report, don't hang.
		fmt.Fprintf(out, "drain incomplete: %v\n", err)
	}
	co.Close() // flush anything the handlers already admitted
	if err := <-errCh; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	fmt.Fprintln(out, "drained, bye")
	return nil
}
