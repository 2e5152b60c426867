package obs

import "time"

// Metric names recorded by the instrumented pipeline. Centralized here so
// call sites, the driftbench summary, and the docs agree.
const (
	// internal/causal
	MetricCITests    = "netdrift_ci_tests_total"    // counter{kind="marginal"|"conditional"}
	MetricCICondSize = "netdrift_ci_cond_size"      // histogram of conditioning-set sizes
	MetricFSVerdicts = "netdrift_fs_features_total" // counter{verdict="variant"|"invariant"}
	MetricFSSearches = "netdrift_fs_searches_total" // counter
	// internal/core
	MetricAdapterFitSeconds = "netdrift_adapter_fit_seconds" // histogram
	MetricTransformSeconds  = "netdrift_transform_seconds"   // histogram
	MetricTransformRows     = "netdrift_transform_rows_total"
	MetricTrainEpochs       = "netdrift_train_epochs_total"    // counter{model=...}
	MetricGenLoss           = "netdrift_train_gen_loss"        // histogram{model=...}
	MetricDiscLoss          = "netdrift_train_disc_loss"       // histogram{model=...}
	MetricTrainFits         = "netdrift_train_fits_total"      // counter{model=...}
	MetricConvergedEpoch    = "netdrift_train_converged_epoch" // histogram{model=...}
	MetricTrainShards       = "netdrift_train_shards_total"    // counter{model=...}
	MetricTrainShardSeconds = "netdrift_train_shard_seconds"   // histogram{model=...}
	MetricReconError        = "netdrift_reconstruction_rmse"   // histogram
	// internal/monitor
	MetricMonitorChecks = "netdrift_monitor_checks_total"
	MetricMonitorDrifts = "netdrift_monitor_drifts_total"
	MetricMonitorKSStat = "netdrift_monitor_ks_stat" // histogram across features
	MetricMonitorPSI    = "netdrift_monitor_psi"     // histogram across features
	// internal/baselines
	MetricMethodSeconds = "netdrift_method_predict_seconds" // histogram{method=...}
	// internal/serve
	MetricServeRequests     = "netdrift_serve_requests_total"     // counter{outcome="ok"|"error"|"canceled"}
	MetricServeRows         = "netdrift_serve_rows_total"         // counter
	MetricServeBatches      = "netdrift_serve_batches_total"      // counter
	MetricServeSwaps        = "netdrift_serve_swaps_total"        // counter
	MetricServeReqLatency   = "netdrift_serve_request_seconds"    // fixed histogram
	MetricServeBatchLatency = "netdrift_serve_batch_seconds"      // fixed histogram
	MetricServeBatchSize    = "netdrift_serve_batch_size"         // fixed histogram
	MetricServeQueueDepth   = "netdrift_serve_queue_depth"        // gauge
	MetricServeBundleLoads  = "netdrift_serve_bundle_loads_total" // counter
	// internal/serve resilience layer
	MetricServeShed               = "netdrift_serve_shed_total"                // counter: requests refused with 429 by admission control
	MetricServeDegraded           = "netdrift_serve_degraded_total"            // counter: passthrough (degraded: true) responses
	MetricServePanics             = "netdrift_serve_recovered_panics_total"    // counter{site="executor"|"handler"}
	MetricServeBreakerTransitions = "netdrift_serve_breaker_transitions_total" // counter{breaker=..., to="closed"|"open"|"half-open"}
	// internal/serve wire codecs
	MetricServeCodecRequests = "netdrift_serve_codec_requests_total" // counter{codec="json"|"binary"}
	MetricServeRequestBytes  = "netdrift_serve_request_bytes"        // fixed histogram{codec=...}: /v1/adapt request body sizes
	MetricServeResponseBytes = "netdrift_serve_response_bytes"       // fixed histogram{codec=...}: /v1/adapt response body sizes
	// internal/ctrl drift-response controller
	MetricCtrlTransitions     = "netdrift_ctrl_transitions_total"         // counter{event="drift-detected"|"refit-start"|...}
	MetricCtrlIngestRows      = "netdrift_ctrl_ingest_rows_total"         // counter: target rows accepted into the controller
	MetricCtrlReservoirRows   = "netdrift_ctrl_reservoir_rows"            // gauge: labelled shots currently retained
	MetricCtrlEpoch           = "netdrift_ctrl_epoch"                     // gauge: promotions survived by the controller
	MetricCtrlRefitSeconds    = "netdrift_ctrl_refit_seconds"             // histogram: wall time of successful refits
	MetricCtrlGateScore       = "netdrift_ctrl_gate_score"                // gauge{role="candidate"|"incumbent"}: last shadow-gate macro-F1
	MetricCtrlDriftToRecovery = "netdrift_ctrl_drift_to_recovery_seconds" // gauge: drift-detected -> promote wall time, last campaign
	MetricCtrlCheckpoints     = "netdrift_ctrl_checkpoints_total"         // counter: atomic checkpoint files written
	// internal/obs tracing + flight recorder + SLO layer
	MetricSpanDrops       = "obs_span_drops_total"               // counter: spans lost to sink marshal/write failures
	MetricFlightEvents    = "netdrift_flightrec_events_total"    // counter: events recorded into the flight ring
	MetricFlightSnapshots = "netdrift_flightrec_snapshots_total" // counter{reason=...}: automatic snapshot files written
	MetricSLOBurnRate     = "netdrift_slo_burn_rate"             // gauge{endpoint=..., window=...}
	MetricSLOErrFraction  = "netdrift_slo_error_fraction"        // gauge{endpoint=..., window=...}
	MetricSLOReqRate      = "netdrift_slo_request_rate"          // gauge{endpoint=..., window=...}: requests/s over the window
	MetricSLOLatency      = "netdrift_slo_latency_seconds"       // gauge{endpoint=..., window=..., quantile=...}
)

// TrainEpoch reports one completed reconstructor training epoch.
type TrainEpoch struct {
	Model       string  // "GAN", "NoCond", "VAE", "VanillaAE"
	Epoch       int     // 0-based
	GenLoss     float64 // generator / total loss (epoch mean)
	DiscLoss    float64 // discriminator loss (epoch mean); adversarial models only
	Adversarial bool    // whether DiscLoss is meaningful
}

// TrainDone reports the end of one reconstructor fit.
type TrainDone struct {
	Model          string
	Epochs         int // epochs actually run
	ConvergedEpoch int // 1-based epoch of the best (minimum) epoch-mean loss
}

// TrainHook observes reconstructor training progress.
type TrainHook interface {
	Epoch(TrainEpoch)
	Done(TrainDone)
}

// CITest reports one conditional-independence test from the FS search.
type CITest struct {
	X, Y     int     // variable indices (Y is the F-node in the FS search)
	CondSize int     // |conditioning set|; 0 for marginal tests
	P        float64 // Fisher-z p-value
}

// FeatureVerdict reports the FS search's final call on one feature.
type FeatureVerdict struct {
	Feature    int
	Variant    bool
	Exonerated bool    // dependence on the domain explained away by siblings
	MarginalP  float64 // the feature's marginal p-value against the F-node
}

// SearchHook observes the causal feature-separation search.
type SearchHook interface {
	CITest(CITest)
	Verdict(FeatureVerdict)
}

// Observer bundles the observability channels: a metrics registry, a span
// sink, a flight recorder, and optional typed hooks. Any field may be nil;
// a nil *Observer disables everything. Pass one Observer through the
// pipeline configs to light up instrumentation end to end.
type Observer struct {
	Registry *Registry
	Spans    Sink
	Flight   *FlightRecorder
	Train    TrainHook
	Search   SearchHook
}

// New returns an Observer with a fresh metrics registry and no span sink.
func New() *Observer {
	return &Observer{Registry: NewRegistry()}
}

// Enabled reports whether any instrumentation is active.
func (o *Observer) Enabled() bool { return o != nil }

// Counter is a nil-safe Registry.Counter.
func (o *Observer) Counter(name string, labels ...string) *Counter {
	if o == nil {
		return nil
	}
	return o.Registry.Counter(name, labels...)
}

// Gauge is a nil-safe Registry.Gauge.
func (o *Observer) Gauge(name string, labels ...string) *Gauge {
	if o == nil {
		return nil
	}
	return o.Registry.Gauge(name, labels...)
}

// Histogram is a nil-safe Registry.Histogram.
func (o *Observer) Histogram(name string, labels ...string) *Histogram {
	if o == nil {
		return nil
	}
	return o.Registry.Histogram(name, labels...)
}

// FixedHistogram is a nil-safe Registry.FixedHistogram.
func (o *Observer) FixedHistogram(name string, bounds []float64, labels ...string) *FixedHistogram {
	if o == nil {
		return nil
	}
	return o.Registry.FixedHistogram(name, bounds, labels...)
}

// StartSpan opens a root span; returns nil (all methods no-ops) when
// tracing is disabled.
func (o *Observer) StartSpan(name string) *Span {
	if o == nil {
		return nil
	}
	return startSpan(o.Spans, 0, "", name)
}

// StartTrace opens a root span bound to a trace ID — the entry point for
// request-scoped tracing. An empty trace mints a fresh ID; an inbound ID
// (e.g. from an X-Request-ID header) is carried verbatim so a caller's
// correlation key survives end to end. Returns nil when tracing is
// disabled, in which case nothing (including the mint) allocates.
func (o *Observer) StartTrace(name, trace string) *Span {
	if o == nil || o.Spans == nil {
		return nil
	}
	if trace == "" {
		trace = MintTraceID()
	}
	return startSpan(o.Spans, 0, trace, name)
}

// FlightRecord appends one event to the flight recorder, if one is
// installed. Nil-safe and non-blocking.
func (o *Observer) FlightRecord(kind, name, trace, detail string) {
	if o == nil {
		return
	}
	o.Flight.Record(kind, name, trace, detail)
}

// FlightSnapshot writes an automatic flight-recorder snapshot for reason,
// if a recorder with a snapshot path is installed. Returns the file
// written, or "".
func (o *Observer) FlightSnapshot(reason string) string {
	if o == nil {
		return ""
	}
	path := o.Flight.AutoSnapshot(reason)
	if path != "" && o.Registry != nil {
		o.Registry.Counter(MetricFlightSnapshots, "reason", reason).Inc()
	}
	return path
}

// noop is the shared disabled-path closure returned by Time.
var noop = func() {}

// Time starts a latency timer; invoking the returned func observes the
// elapsed seconds into the named histogram. Disabled observers return a
// shared no-op without touching the clock.
func (o *Observer) Time(name string, labels ...string) func() {
	if o == nil || o.Registry == nil {
		return noop
	}
	h := o.Registry.Histogram(name, labels...)
	start := time.Now()
	return func() { h.Observe(time.Since(start).Seconds()) }
}

// OnTrainEpoch records one training epoch into the registry and forwards
// it to the TrainHook.
func (o *Observer) OnTrainEpoch(e TrainEpoch) {
	if o == nil {
		return
	}
	if r := o.Registry; r != nil {
		r.Counter(MetricTrainEpochs, "model", e.Model).Inc()
		r.Histogram(MetricGenLoss, "model", e.Model).Observe(e.GenLoss)
		if e.Adversarial {
			r.Histogram(MetricDiscLoss, "model", e.Model).Observe(e.DiscLoss)
		}
	}
	if o.Train != nil {
		o.Train.Epoch(e)
	}
}

// OnTrainDone records the end of a reconstructor fit.
func (o *Observer) OnTrainDone(d TrainDone) {
	if o == nil {
		return
	}
	if r := o.Registry; r != nil {
		r.Counter(MetricTrainFits, "model", d.Model).Inc()
		r.Histogram(MetricConvergedEpoch, "model", d.Model).Observe(float64(d.ConvergedEpoch))
	}
	if o.Train != nil {
		o.Train.Done(d)
	}
}

// OnTrainShard records one gradient-shard execution of a data-parallel
// training step: its wall time and a shard counter. Metrics only — it is
// deliberately NOT forwarded to the TrainHook, so hook event streams stay
// bit-identical across worker counts (shard timings are timing-dependent;
// hook streams are part of the determinism contract).
func (o *Observer) OnTrainShard(model string, seconds float64) {
	if o == nil {
		return
	}
	if r := o.Registry; r != nil {
		r.Counter(MetricTrainShards, "model", model).Inc()
		r.Histogram(MetricTrainShardSeconds, "model", model).Observe(seconds)
	}
}

// OnCITest records one CI test into the registry and forwards it to the
// SearchHook.
func (o *Observer) OnCITest(t CITest) {
	if o == nil {
		return
	}
	if r := o.Registry; r != nil {
		kind := "marginal"
		if t.CondSize > 0 {
			kind = "conditional"
		}
		r.Counter(MetricCITests, "kind", kind).Inc()
		r.Histogram(MetricCICondSize).Observe(float64(t.CondSize))
	}
	if o.Search != nil {
		o.Search.CITest(t)
	}
}

// OnVerdict records one FS feature verdict.
func (o *Observer) OnVerdict(v FeatureVerdict) {
	if o == nil {
		return
	}
	if r := o.Registry; r != nil {
		verdict := "invariant"
		if v.Variant {
			verdict = "variant"
		}
		r.Counter(MetricFSVerdicts, "verdict", verdict).Inc()
	}
	if o.Search != nil {
		o.Search.Verdict(v)
	}
}
