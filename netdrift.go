// Package netdrift is a Go implementation of few-shot domain adaptation
// for data-drift mitigation in network management (Johari et al., ICDCS
// 2025): causal-inference-based feature separation (FS) plus conditional-
// GAN reconstruction of domain-variant features (FS+GAN).
//
// Network-management classifiers are trained exclusively on source-domain
// telemetry; when the operational domain drifts, only the lightweight
// Adapter front end is refitted from a handful of labelled target samples —
// the deployed models never need retraining.
//
// Basic use:
//
//	adapter := netdrift.NewAdapter(netdrift.AdapterConfig{
//	    Mode:  netdrift.ModeFSRecon,
//	    Recon: netdrift.ReconGAN,
//	})
//	if err := adapter.Fit(source, fewShotTarget); err != nil { ... }
//	train, _ := adapter.TrainingData(source) // train your model on this
//	aligned, _ := adapter.TransformTarget(testRows)
//	// feed `aligned` to the source-trained model
//
// The heavy lifting lives in the internal packages: internal/core (the
// method), internal/causal (CI tests and the F-node search), internal/nn,
// internal/tree (model substrates), internal/dataset (synthetic 5G
// datasets), internal/baselines (the 11 compared approaches), and
// internal/experiments (the paper's tables). This package re-exports the
// user-facing surface.
package netdrift

import (
	"io"
	"net/http"

	"netdrift/internal/causal"
	"netdrift/internal/core"
	"netdrift/internal/dataset"
	"netdrift/internal/metrics"
	"netdrift/internal/models"
	"netdrift/internal/monitor"
	"netdrift/internal/obs"
	"netdrift/internal/serve"
)

// Core pipeline types (see internal/core).
type (
	// Adapter is the FS / FS+GAN domain-adaptation pipeline.
	Adapter = core.Adapter
	// AdapterConfig assembles the pipeline.
	AdapterConfig = core.AdapterConfig
	// Mode selects FS-only or FS+reconstruction operation.
	Mode = core.Mode
	// ReconKind selects the reconstruction strategy.
	ReconKind = core.ReconKind
	// GANConfig tunes the conditional GAN reconstructor.
	GANConfig = core.GANConfig
	// VAEConfig tunes the VAE/autoencoder ablation reconstructors.
	VAEConfig = core.VAEConfig
	// FeatureSeparator runs the FS causal feature separation alone.
	FeatureSeparator = core.FeatureSeparator
	// FNodeConfig tunes the conditional-independence search.
	FNodeConfig = causal.FNodeConfig
)

// Adapter modes and reconstruction strategies.
const (
	ModeFS         = core.ModeFS
	ModeFSRecon    = core.ModeFSRecon
	ReconGAN       = core.ReconGAN
	ReconGANNoCond = core.ReconGANNoCond
	ReconVAE       = core.ReconVAE
	ReconVanillaAE = core.ReconVanillaAE
)

// Data and model types.
type (
	// Dataset is the tabular telemetry container used across the library.
	Dataset = dataset.Dataset
	// FiveGCConfig parameterizes the synthetic 5GC drift generator.
	FiveGCConfig = dataset.FiveGCConfig
	// FiveGIPCConfig parameterizes the synthetic 5GIPC drift generator.
	FiveGIPCConfig = dataset.FiveGIPCConfig
	// DriftedPair is a source domain plus one drifted target domain.
	DriftedPair = dataset.Drifted
	// DriftedMulti is a source domain plus several drifted target domains.
	DriftedMulti = dataset.DriftedMulti
	// Classifier is the model-agnostic classifier interface (TNet, MLP,
	// random forest, gradient-boosted trees).
	Classifier = models.Classifier
	// ClassifierKind identifies a classifier family.
	ClassifierKind = models.Kind
	// ClassifierOptions tunes classifier capacity.
	ClassifierOptions = models.Options
)

// Classifier families.
const (
	TNet = models.KindTNet
	MLP  = models.KindMLP
	RF   = models.KindRF
	XGB  = models.KindXGB
)

// NewAdapter builds an unfitted FS / FS+GAN adapter.
func NewAdapter(cfg AdapterConfig) *Adapter { return core.NewAdapter(cfg) }

// NewFeatureSeparator builds the FS stage alone.
func NewFeatureSeparator(cfg FNodeConfig) *FeatureSeparator {
	return core.NewFeatureSeparator(cfg)
}

// NewClassifier constructs one of the four classifier families.
func NewClassifier(kind ClassifierKind, opts ClassifierOptions) (Classifier, error) {
	return models.New(kind, opts)
}

// PredictClasses runs a classifier and returns argmax labels.
func PredictClasses(c Classifier, x [][]float64) ([]int, error) {
	return models.PredictClasses(c, x)
}

// MacroF1 scores predictions with the paper's metric (scaled to [0, 100]).
func MacroF1(yTrue, yPred []int, numClasses int) (float64, error) {
	return metrics.MacroF1Score(yTrue, yPred, numClasses)
}

// Synthetic5GC generates the synthetic stand-in for the paper's 5GC
// failure-classification dataset.
func Synthetic5GC(cfg dataset.FiveGCConfig) (*dataset.Drifted, error) {
	return dataset.Synthetic5GC(cfg)
}

// Synthetic5GIPC generates the synthetic stand-in for the paper's 5GIPC
// fault-detection dataset.
func Synthetic5GIPC(cfg dataset.FiveGIPCConfig) (*dataset.DriftedMulti, error) {
	return dataset.Synthetic5GIPC(cfg)
}

// Drift-monitoring types (see internal/monitor): the trigger for
// refreshing the adapter when the network drifts again.
type (
	// DriftDetector compares telemetry windows against the source domain.
	DriftDetector = monitor.Detector
	// DriftConfig tunes the detector.
	DriftConfig = monitor.Config
	// DriftReport is one window's drift verdict.
	DriftReport = monitor.Report
)

// NewDriftDetector creates an unfitted drift detector.
func NewDriftDetector(cfg DriftConfig) *DriftDetector { return monitor.New(cfg) }

// LoadAdapter restores an adapter saved with (*Adapter).Save — the fitted
// scaler, the variant/invariant split, and the trained generator weights —
// so the inference path can be deployed without refitting.
func LoadAdapter(r io.Reader) (*Adapter, error) { return core.LoadAdapter(r) }

// Observability types (see internal/obs): set AdapterConfig.Obs (or
// DriftConfig.Obs) to light up metrics, span tracing, and training hooks
// across the pipeline. A nil Observer keeps every instrumented path at its
// uninstrumented cost and produces byte-identical adaptation results.
type (
	// Observer bundles a metrics registry, a span sink, and typed hooks.
	Observer = obs.Observer
	// Metrics is the concurrency-safe registry behind Observer.Registry;
	// it renders Prometheus text format and is mountable as a /metrics
	// http.Handler.
	Metrics = obs.Registry
	// SpanSink receives finished trace spans.
	SpanSink = obs.Sink
	// TrainHook observes per-epoch reconstructor losses.
	TrainHook = obs.TrainHook
	// SearchHook observes CI tests and per-feature verdicts from FS.
	SearchHook = obs.SearchHook
)

// NewObserver creates an Observer with a fresh metrics registry and no
// span sink.
func NewObserver() *Observer { return obs.New() }

// NewMetrics creates an empty metrics registry.
func NewMetrics() *Metrics { return obs.NewRegistry() }

// Serving types (see internal/serve): micro-batch request coalescing and
// lock-free artifact hot-swap for deploying a fitted adapter (plus an
// optional classifier) behind an HTTP endpoint. cmd/driftserve is the
// ready-made binary; these re-exports let a custom server embed the same
// machinery.
type (
	// Bundle pairs a fitted Adapter with an optional MLP classifier under
	// one artifact id.
	Bundle = serve.Bundle
	// BundleRegistry hot-swaps the active Bundle behind an atomic pointer.
	BundleRegistry = serve.Registry
	// Coalescer batches concurrent adaptation requests into micro-batched
	// forward passes.
	Coalescer = serve.Coalescer
	// CoalescerOptions tunes batching (MaxBatch, Workers, MaxQueue).
	CoalescerOptions = serve.Options
)

// NewBundleRegistry creates an empty hot-swap registry; obs may be nil.
func NewBundleRegistry(o *Observer) *BundleRegistry { return serve.NewRegistry(o) }

// NewCoalescer starts a request coalescer serving from reg's current
// bundle. Close it to drain queued requests.
func NewCoalescer(reg *BundleRegistry, opts CoalescerOptions) *Coalescer {
	return serve.NewCoalescer(reg, opts)
}

// NewAdaptServer wires the registry and coalescer into the driftserve
// HTTP API (POST /v1/adapt, GET /healthz, GET /metrics); o may be nil.
func NewAdaptServer(reg *BundleRegistry, co *Coalescer, o *Observer) http.Handler {
	return serve.NewServer(reg, co, o)
}
