package core

import (
	"fmt"
	"math"
	"strconv"

	"netdrift/internal/causal"
	"netdrift/internal/dataset"
	"netdrift/internal/obs"
)

// Mode selects between the two variants evaluated in the paper.
type Mode int

// Adapter modes.
const (
	// ModeFS trains the downstream model on invariant features only
	// ("FS (ours)" in Table I).
	ModeFS Mode = iota + 1
	// ModeFSRecon trains the downstream model on all features and replaces
	// a target sample's variant features with reconstructed source-like
	// values at inference ("FS+GAN (ours)" and the Table II ablations).
	ModeFSRecon
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case ModeFS:
		return "FS"
	case ModeFSRecon:
		return "FS+Recon"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// AdapterConfig assembles the full pipeline.
type AdapterConfig struct {
	Mode  Mode               // default ModeFSRecon
	Recon ReconKind          // default ReconGAN (ignored in ModeFS)
	FS    causal.FNodeConfig // CI-test configuration
	GAN   GANConfig          // GAN/NoCond settings
	VAE   VAEConfig          // VAE/VanillaAE settings
	Seed  int64
	// Workers bounds the goroutines used by the pipeline's parallel stages
	// (the FS causal search and, when TrainShards > 1, the gradient-shard
	// workers of reconstructor training). It is propagated to the FS/GAN/VAE
	// sub-configs unless those already set their own value. <= 0 means
	// runtime.GOMAXPROCS(0); 1 forces the exact sequential path. Results are
	// bit-identical for every value.
	Workers int
	// TrainShards is the number of deterministic gradient shards per
	// reconstructor minibatch (data-parallel across Workers goroutines).
	// Propagated to the GAN/VAE sub-configs unless they set their own.
	// Unlike Workers, the shard count is part of the reproducibility key,
	// like the seed: changing it changes the trained bits (changing Workers
	// never does). 0 or 1 trains as one shard, the networks themselves
	// drawing from the model's own seeded streams.
	TrainShards int
	// Obs, when non-nil, instruments the whole pipeline: Fit/TransformTarget
	// latencies and spans, CI-test counters from the FS search, per-epoch
	// reconstructor losses, and a reconstruction-error histogram. It is
	// propagated to the FS/GAN/VAE sub-configs unless those already carry
	// their own observer. Instrumentation never alters results: a nil Obs
	// and a live Obs produce byte-identical adapters. Never serialized.
	Obs *obs.Observer `json:"-"`
}

// Adapter is the paper's domain-adaptation pipeline (Fig. 1): feature
// separation on source + few-shot target data, reconstructor training on
// source data only, and inference-time alignment of target samples. The
// downstream network-management model is trained exclusively on (scaled)
// source data and never needs retraining as the domain drifts.
type Adapter struct {
	cfg AdapterConfig

	sep    *FeatureSeparator
	recon  Reconstructor
	fitted bool
}

// NewAdapter builds an unfitted adapter.
func NewAdapter(cfg AdapterConfig) *Adapter {
	if cfg.Mode == 0 {
		cfg.Mode = ModeFSRecon
	}
	if cfg.Recon == 0 {
		cfg.Recon = ReconGAN
	}
	if cfg.FS.Workers == 0 {
		cfg.FS.Workers = cfg.Workers
	}
	if cfg.GAN.Workers == 0 {
		cfg.GAN.Workers = cfg.Workers
	}
	if cfg.VAE.Workers == 0 {
		cfg.VAE.Workers = cfg.Workers
	}
	if cfg.GAN.Shards == 0 {
		cfg.GAN.Shards = cfg.TrainShards
	}
	if cfg.VAE.Shards == 0 {
		cfg.VAE.Shards = cfg.TrainShards
	}
	if cfg.Obs != nil {
		// Light up the sub-stages with the pipeline observer unless the
		// caller wired stage-specific ones.
		if cfg.FS.Obs == nil {
			cfg.FS.Obs = cfg.Obs
		}
		if cfg.GAN.Obs == nil {
			cfg.GAN.Obs = cfg.Obs
		}
		if cfg.VAE.Obs == nil {
			cfg.VAE.Obs = cfg.Obs
		}
	}
	return &Adapter{cfg: cfg}
}

// Fit runs feature separation using the few-shot target support set and
// trains the reconstructor on source data only.
func (a *Adapter) Fit(source *dataset.Dataset, targetSupport *dataset.Dataset) error {
	o := a.cfg.Obs
	defer o.Time(obs.MetricAdapterFitSeconds)()
	sp := o.StartSpan("adapter.fit")
	defer sp.End()

	if err := source.Validate(); err != nil {
		return fmt.Errorf("core: source: %w", err)
	}
	if err := targetSupport.Validate(); err != nil {
		return fmt.Errorf("core: target support: %w", err)
	}
	if source.NumFeatures() != targetSupport.NumFeatures() {
		return fmt.Errorf("core: feature width mismatch %d vs %d",
			source.NumFeatures(), targetSupport.NumFeatures())
	}
	fsSpan := sp.Child("feature_separation")
	sep := NewFeatureSeparator(a.cfg.FS)
	if err := sep.Fit(source.X, targetSupport.X); err != nil {
		fsSpan.End()
		return err
	}
	fsSpan.SetAttr("variant", strconv.Itoa(len(sep.variant)))
	fsSpan.SetAttr("invariant", strconv.Itoa(len(sep.invariant)))
	fsSpan.End()
	o.Gauge("netdrift_variant_features").Set(float64(len(sep.variant)))
	o.Gauge("netdrift_invariant_features").Set(float64(len(sep.invariant)))
	a.sep = sep
	a.recon = nil
	a.fitted = true

	if a.cfg.Mode != ModeFSRecon {
		return nil
	}
	if len(sep.variant) == 0 {
		// Nothing to reconstruct; TransformTarget degenerates to scaling.
		return nil
	}
	scaled, err := sep.Scale(source.X)
	if err != nil {
		return err
	}
	inv, vr, err := sep.Split(scaled)
	if err != nil {
		return err
	}
	recon, err := a.newReconstructor()
	if err != nil {
		return err
	}
	reconSpan := sp.Child("reconstructor.fit")
	reconSpan.SetAttr("kind", a.cfg.Recon.String())
	if err := recon.Fit(inv, vr, source.Y, source.NumClasses()); err != nil {
		reconSpan.End()
		return fmt.Errorf("core: train reconstructor: %w", err)
	}
	reconSpan.End()
	a.recon = recon
	a.observeReconstruction(inv, vr)
	return nil
}

// observeReconstruction records a per-row RMSE histogram of the trained
// reconstructor against the true (scaled) source variant block. It runs
// only when an observer is attached and performs no RNG draws, so it can
// never perturb adaptation results.
func (a *Adapter) observeReconstruction(inv, vr [][]float64) {
	o := a.cfg.Obs
	if o == nil || o.Registry == nil || len(inv) == 0 {
		return
	}
	vrHat, err := reconstructRows(a.recon, inv)
	if err != nil || len(vrHat) != len(vr) {
		return
	}
	h := o.Histogram(obs.MetricReconError, obs.PipelineBuckets)
	for i := range vr {
		var ss float64
		for j := range vr[i] {
			d := vrHat[i][j] - vr[i][j]
			ss += d * d
		}
		h.Observe(math.Sqrt(ss / float64(len(vr[i]))))
	}
}

func (a *Adapter) newReconstructor() (Reconstructor, error) {
	switch a.cfg.Recon {
	case ReconGAN:
		cfg := a.cfg.GAN
		cfg.Conditional = true
		if cfg.Seed == 0 {
			cfg.Seed = a.cfg.Seed + 101
		}
		return NewCGAN(cfg), nil
	case ReconGANNoCond:
		cfg := a.cfg.GAN
		cfg.Conditional = false
		if cfg.Seed == 0 {
			cfg.Seed = a.cfg.Seed + 101
		}
		return NewCGAN(cfg), nil
	case ReconVAE:
		cfg := a.cfg.VAE
		if cfg.Seed == 0 {
			cfg.Seed = a.cfg.Seed + 101
		}
		return NewVAE(cfg), nil
	case ReconVanillaAE:
		cfg := a.cfg.VAE
		if cfg.Seed == 0 {
			cfg.Seed = a.cfg.Seed + 101
		}
		return NewVanillaAE(cfg), nil
	default:
		return nil, fmt.Errorf("core: unknown reconstructor kind %d", int(a.cfg.Recon))
	}
}

// TrainingData returns the dataset on which the downstream network-
// management model should be trained: scaled source data with all features
// (ModeFSRecon) or projected onto invariant features (ModeFS). The model is
// trained on source data only, per the paper's no-retraining guarantee.
func (a *Adapter) TrainingData(source *dataset.Dataset) (*dataset.Dataset, error) {
	if !a.fitted {
		return nil, ErrNotFitted
	}
	if a.cfg.Mode == ModeFS {
		return a.sep.InvariantDataset(source)
	}
	scaled, err := a.sep.Scale(source.X)
	if err != nil {
		return nil, err
	}
	out := source.Clone()
	out.X = scaled
	return out, nil
}

// TransformTarget aligns raw target-domain rows to the source domain:
// scale, then (in ModeFSRecon) replace the variant features with
// reconstructions generated from the invariant features (Fig. 1(c)).
// In ModeFS it projects onto the invariant features instead.
func (a *Adapter) TransformTarget(x [][]float64) ([][]float64, error) {
	if !a.fitted {
		return nil, ErrNotFitted
	}
	if o := a.cfg.Obs; o != nil {
		defer o.Time(obs.MetricTransformSeconds)()
		o.Counter(obs.MetricTransformRows).Add(float64(len(x)))
	}
	scaled, err := a.sep.Scale(x)
	if err != nil {
		return nil, err
	}
	if a.cfg.Mode == ModeFS {
		return selectCols(scaled, a.sep.invariant), nil
	}
	if a.recon == nil {
		// No variant features were identified: pass-through.
		return scaled, nil
	}
	inv, _, err := a.sep.Split(scaled)
	if err != nil {
		return nil, err
	}
	vrHat, err := reconstructRows(a.recon, inv)
	if err != nil {
		return nil, err
	}
	return a.sep.Merge(inv, vrHat)
}

// VariantFeatures returns the indices identified as domain-variant.
func (a *Adapter) VariantFeatures() []int {
	if !a.fitted {
		return nil
	}
	return a.sep.Variant()
}

// InvariantFeatures returns the indices identified as domain-invariant.
func (a *Adapter) InvariantFeatures() []int {
	if !a.fitted {
		return nil
	}
	return a.sep.Invariant()
}

// NumFeatures returns the full raw feature width the adapter was fitted
// on — what every serving row must have. Zero before Fit.
func (a *Adapter) NumFeatures() int {
	if !a.fitted {
		return 0
	}
	return len(a.sep.invariant) + len(a.sep.variant)
}
