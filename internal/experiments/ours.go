// Package experiments reproduces every table and figure of the paper's
// evaluation (§VI): Table I (methods × classifiers × shots on both
// datasets), Table II (reconstruction ablation), Table III (multi-target
// no-retraining), the sensitivity analyses of §VI-C, the in-domain SrcOnly
// check of §VI-B(a), and the running-time measurements of §VI-D. Every
// table and sensitivity analysis is a view of one seeded draw grid
// (RunGrid) that keeps every per-draw score.
package experiments

import (
	"fmt"

	"netdrift/internal/baselines"
	"netdrift/internal/causal"
	"netdrift/internal/core"
	"netdrift/internal/dataset"
	"netdrift/internal/models"
)

// OursMethod adapts the paper's FS / FS+GAN pipeline (core.Adapter) to the
// baselines.AgnosticMethod interface so it can be evaluated side by side
// with the compared approaches. Every Adapt fits a fresh adapter; Table I
// adapts once per cell, so its four classifier columns share one GAN
// training.
type OursMethod struct {
	Label string
	Cfg   core.AdapterConfig
}

var _ baselines.AgnosticMethod = (*OursMethod)(nil)

// NewFS returns the FS-only method ("FS (ours)").
func NewFS(seed int64) *OursMethod {
	return &OursMethod{
		Label: "FS (ours)",
		Cfg:   core.AdapterConfig{Mode: core.ModeFS, Seed: seed},
	}
}

// NewFSGAN returns the full method ("FS+GAN (ours)").
func NewFSGAN(ganEpochs int, seed int64) *OursMethod {
	return &OursMethod{
		Label: "FS+GAN (ours)",
		Cfg: core.AdapterConfig{
			Mode:  core.ModeFSRecon,
			Recon: core.ReconGAN,
			GAN:   core.GANConfig{Epochs: ganEpochs},
			Seed:  seed,
		},
	}
}

// NewFSRecon returns an FS+reconstruction variant for the Table II
// ablation.
func NewFSRecon(kind core.ReconKind, epochs int, seed int64) *OursMethod {
	cfg := core.AdapterConfig{Mode: core.ModeFSRecon, Recon: kind, Seed: seed}
	switch kind {
	case core.ReconGAN, core.ReconGANNoCond:
		cfg.GAN = core.GANConfig{Epochs: epochs}
	case core.ReconVAE, core.ReconVanillaAE:
		cfg.VAE = core.VAEConfig{Epochs: epochs}
	}
	return &OursMethod{Label: "FS+" + kind.String(), Cfg: cfg}
}

// Name implements baselines.Method.
func (m *OursMethod) Name() string { return m.Label }

// Predict implements baselines.Method.
func (m *OursMethod) Predict(source, support, test *dataset.Dataset, clf models.Classifier) ([]int, error) {
	return baselines.PredictAdapted(m, source, support, test, clf)
}

// Adapt implements baselines.AgnosticMethod. The downstream classifier
// trains exclusively on (scaled) source data; target data only drives the
// feature separation and the reconstructor, and the test rows are aligned
// to the source domain.
func (m *OursMethod) Adapt(source, support, test *dataset.Dataset) (*baselines.Adapted, error) {
	ad := core.NewAdapter(m.Cfg)
	if err := ad.Fit(source, support); err != nil {
		return nil, fmt.Errorf("experiments: %s adapter fit: %w", m.Label, err)
	}
	train, err := ad.TrainingData(source)
	if err != nil {
		return nil, err
	}
	aligned, err := ad.TransformTarget(test.X)
	if err != nil {
		return nil, fmt.Errorf("experiments: %s transform: %w", m.Label, err)
	}
	return &baselines.Adapted{
		TrainX: train.X, TrainY: train.Y, TestX: aligned,
		NumClasses: max(source.NumClasses(), test.NumClasses()),
	}, nil
}

// VariantCount runs only the feature-separation stage and reports how many
// domain-variant features FS identifies (sensitivity analysis, §VI-C).
func VariantCount(source, support *dataset.Dataset, cfg causal.FNodeConfig) (int, error) {
	sep := core.NewFeatureSeparator(cfg)
	if err := sep.Fit(source.X, support.X); err != nil {
		return 0, err
	}
	return len(sep.Variant()), nil
}
