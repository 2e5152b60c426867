package core

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"netdrift/internal/causal"
	"netdrift/internal/dataset"
	"netdrift/internal/stats"
)

// driftToy builds a small drifted classification problem:
//   - f0, f1: invariant, carry class signal
//   - f2: variant aggregate = f0 + f1 + class signal + small noise,
//     mean-shifted in the target domain
//   - f3: invariant pure noise
func driftToy(n int, target bool, seed int64) *dataset.Dataset {
	rng := rand.New(rand.NewSource(seed))
	x := make([][]float64, n)
	y := make([]int, n)
	for i := 0; i < n; i++ {
		c := i % 2
		cs := float64(2*c - 1) // -1 or +1
		f0 := cs + 0.5*rng.NormFloat64()
		f1 := cs*0.8 + 0.5*rng.NormFloat64()
		f2 := f0 + f1 + cs + 0.1*rng.NormFloat64()
		if target {
			f2 += 4 // soft intervention: traffic trend shift
		}
		f3 := rng.NormFloat64()
		x[i] = []float64{f0, f1, f2, f3}
		y[i] = c
	}
	return &dataset.Dataset{X: x, Y: y}
}

func TestFeatureSeparatorFindsShiftedFeature(t *testing.T) {
	src := driftToy(800, false, 1)
	tgt := driftToy(60, true, 2)
	sep := NewFeatureSeparator(causal.FNodeConfig{})
	if err := sep.Fit(src.X, tgt.X); err != nil {
		t.Fatal(err)
	}
	variant := sep.Variant()
	if len(variant) != 1 || variant[0] != 2 {
		t.Errorf("variant = %v; want [2]", variant)
	}
	inv := sep.Invariant()
	if len(inv) != 3 {
		t.Errorf("invariant = %v; want 3 features", inv)
	}
}

func TestFeatureSeparatorSplitMergeRoundTrip(t *testing.T) {
	src := driftToy(400, false, 3)
	tgt := driftToy(40, true, 4)
	sep := NewFeatureSeparator(causal.FNodeConfig{})
	if err := sep.Fit(src.X, tgt.X); err != nil {
		t.Fatal(err)
	}
	scaled, err := sep.Scale(src.X[:10])
	if err != nil {
		t.Fatal(err)
	}
	inv, vr, err := sep.Split(scaled)
	if err != nil {
		t.Fatal(err)
	}
	back, err := sep.Merge(inv, vr)
	if err != nil {
		t.Fatal(err)
	}
	for i := range scaled {
		for j := range scaled[i] {
			if back[i][j] != scaled[i][j] {
				t.Fatalf("merge(split(x)) != x at [%d][%d]", i, j)
			}
		}
	}
}

func TestFeatureSeparatorNotFitted(t *testing.T) {
	sep := NewFeatureSeparator(causal.FNodeConfig{})
	if _, err := sep.Scale([][]float64{{1}}); !errors.Is(err, ErrNotFitted) {
		t.Errorf("err = %v; want ErrNotFitted", err)
	}
	if _, _, err := sep.Split(nil); !errors.Is(err, ErrNotFitted) {
		t.Errorf("err = %v; want ErrNotFitted", err)
	}
}

// fitToyReconstructor prepares scaled inv/var training splits from the toy
// source data.
func fitToyReconstructor(t *testing.T, r Reconstructor) (*FeatureSeparator, *dataset.Dataset) {
	t.Helper()
	src := driftToy(800, false, 5)
	tgt := driftToy(60, true, 6)
	sep := NewFeatureSeparator(causal.FNodeConfig{})
	if err := sep.Fit(src.X, tgt.X); err != nil {
		t.Fatal(err)
	}
	scaled, err := sep.Scale(src.X)
	if err != nil {
		t.Fatal(err)
	}
	inv, vr, err := sep.Split(scaled)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Fit(inv, vr, src.Y, 2); err != nil {
		t.Fatal(err)
	}
	return sep, src
}

// reconstructionError measures mean absolute error of reconstructed variant
// features against the true source values.
func reconstructionError(t *testing.T, r Reconstructor, sep *FeatureSeparator, src *dataset.Dataset) float64 {
	t.Helper()
	scaled, err := sep.Scale(src.X)
	if err != nil {
		t.Fatal(err)
	}
	inv, vr, err := sep.Split(scaled)
	if err != nil {
		t.Fatal(err)
	}
	got, err := reconstructRows(r, inv)
	if err != nil {
		t.Fatal(err)
	}
	var mae float64
	var count float64
	for i := range vr {
		for j := range vr[i] {
			mae += math.Abs(got[i][j] - vr[i][j])
			count++
		}
	}
	return mae / count
}

func TestReconstructors(t *testing.T) {
	makers := []struct {
		name string
		make func() Reconstructor
		tol  float64
	}{
		{"GAN", func() Reconstructor { return NewCGAN(GANConfig{Epochs: 30, Conditional: true, Seed: 7}) }, 0.12},
		{"NoCond", func() Reconstructor { return NewCGAN(GANConfig{Epochs: 30, Seed: 7}) }, 0.14},
		{"VAE", func() Reconstructor { return NewVAE(VAEConfig{Epochs: 30, Seed: 7}) }, 0.15},
		{"VanillaAE", func() Reconstructor { return NewVanillaAE(VAEConfig{Epochs: 30, Seed: 7}) }, 0.12},
	}
	for _, m := range makers {
		m := m
		t.Run(m.name, func(t *testing.T) {
			r := m.make()
			sep, src := fitToyReconstructor(t, r)
			mae := reconstructionError(t, r, sep, src)
			// The variant feature is a near-deterministic function of the
			// invariants (plus class signal inferable from them), so a good
			// reconstructor gets close in the [-1,1] scaled space.
			if mae > m.tol {
				t.Errorf("%s reconstruction MAE = %.3f; want <= %.2f", m.name, mae, m.tol)
			}
		})
	}
}

func TestReconstructorNotFitted(t *testing.T) {
	for _, r := range []Reconstructor{
		NewCGAN(GANConfig{}), NewVAE(VAEConfig{}), NewVanillaAE(VAEConfig{}),
	} {
		if _, err := reconstructRows(r, [][]float64{{1}}); !errors.Is(err, ErrNotFitted) {
			t.Errorf("%s: err = %v; want ErrNotFitted", r.Name(), err)
		}
	}
}

func TestReconstructorFitErrors(t *testing.T) {
	g := NewCGAN(GANConfig{Epochs: 1})
	if err := g.Fit(nil, nil, nil, 2); err == nil {
		t.Error("expected error for empty fit")
	}
	if err := g.Fit([][]float64{{1}}, [][]float64{{}}, []int{0}, 2); err == nil {
		t.Error("expected error for zero variant features")
	}
}

func TestAdapterEndToEndFSRecon(t *testing.T) {
	src := driftToy(800, false, 8)
	tgtSupport := driftToy(20, true, 9)
	tgtTest := driftToy(400, true, 10)

	ad := NewAdapter(AdapterConfig{
		Mode:  ModeFSRecon,
		Recon: ReconGAN,
		GAN:   GANConfig{Epochs: 30},
		Seed:  11,
	})
	if err := ad.Fit(src, tgtSupport); err != nil {
		t.Fatal(err)
	}
	if v := ad.VariantFeatures(); len(v) != 1 || v[0] != 2 {
		t.Fatalf("variant = %v; want [2]", v)
	}
	if ad.Reconstructor() == nil {
		t.Fatal("reconstructor missing in FSRecon mode")
	}

	// Training data keeps all features, scaled to [-1, 1].
	train, err := ad.TrainingData(src)
	if err != nil {
		t.Fatal(err)
	}
	if train.NumFeatures() != 4 {
		t.Errorf("training width = %d; want 4", train.NumFeatures())
	}

	// Transformed target must look like the source distribution on the
	// variant feature: the raw target f2 is shifted by +4, the transformed
	// one must match the source mean closely.
	transformed, err := ad.TransformTarget(tgtTest.X)
	if err != nil {
		t.Fatal(err)
	}
	srcF2 := columnMean(train.X, 2)
	rawScaled, err := NewFeatureSeparator(causal.FNodeConfig{}).scalerFor(src.X, tgtTest.X)
	if err != nil {
		t.Fatal(err)
	}
	tgtF2Raw := columnMean(rawScaled, 2)
	tgtF2Fixed := columnMean(transformed, 2)
	if math.Abs(tgtF2Fixed-srcF2) > math.Abs(tgtF2Raw-srcF2)/2 {
		t.Errorf("transform did not pull variant feature toward source: src=%.3f raw=%.3f fixed=%.3f",
			srcF2, tgtF2Raw, tgtF2Fixed)
	}
	// Invariant features pass through unchanged.
	invScaled, err := ad.sep.Scale(tgtTest.X)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		for _, j := range []int{0, 1, 3} {
			if transformed[i][j] != invScaled[i][j] {
				t.Fatalf("invariant feature %d modified by transform", j)
			}
		}
	}
}

// scalerFor is a test helper exposing scaled target data for comparison.
func (s *FeatureSeparator) scalerFor(src, tgt [][]float64) ([][]float64, error) {
	sc := stats.NewMinMaxScaler(-1, 1)
	if err := sc.Fit(src); err != nil {
		return nil, err
	}
	return sc.Transform(tgt)
}

func TestAdapterFSMode(t *testing.T) {
	src := driftToy(600, false, 12)
	tgtSupport := driftToy(20, true, 13)
	ad := NewAdapter(AdapterConfig{Mode: ModeFS, Seed: 14})
	if err := ad.Fit(src, tgtSupport); err != nil {
		t.Fatal(err)
	}
	train, err := ad.TrainingData(src)
	if err != nil {
		t.Fatal(err)
	}
	if train.NumFeatures() != 3 {
		t.Errorf("FS training width = %d; want 3 (variant dropped)", train.NumFeatures())
	}
	out, err := ad.TransformTarget(src.X[:5])
	if err != nil {
		t.Fatal(err)
	}
	if len(out[0]) != 3 {
		t.Errorf("FS transform width = %d; want 3", len(out[0]))
	}
	if ad.Reconstructor() != nil {
		t.Error("FS mode must not train a reconstructor")
	}
}

func TestAdapterNoDrift(t *testing.T) {
	// Identical domains: no variant features; transform degenerates to
	// scaling and must not fail.
	src := driftToy(500, false, 15)
	tgtSupport := driftToy(30, false, 16)
	ad := NewAdapter(AdapterConfig{Mode: ModeFSRecon, GAN: GANConfig{Epochs: 2}, Seed: 17})
	if err := ad.Fit(src, tgtSupport); err != nil {
		t.Fatal(err)
	}
	if len(ad.VariantFeatures()) > 1 {
		t.Errorf("false-positive variant features: %v", ad.VariantFeatures())
	}
	out, err := ad.TransformTarget(src.X[:3])
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 3 || len(out[0]) != 4 {
		t.Errorf("pass-through transform shape wrong: %dx%d", len(out), len(out[0]))
	}
}

func TestAdapterErrors(t *testing.T) {
	ad := NewAdapter(AdapterConfig{})
	if _, err := ad.TransformTarget([][]float64{{1}}); !errors.Is(err, ErrNotFitted) {
		t.Errorf("err = %v; want ErrNotFitted", err)
	}
	if _, err := ad.TrainingData(&dataset.Dataset{}); !errors.Is(err, ErrNotFitted) {
		t.Errorf("err = %v; want ErrNotFitted", err)
	}
	src := driftToy(100, false, 18)
	narrow := &dataset.Dataset{X: [][]float64{{1, 2}}, Y: []int{0}}
	if err := ad.Fit(src, narrow); err == nil {
		t.Error("expected width mismatch error")
	}
	bad := NewAdapter(AdapterConfig{Recon: ReconKind(99)})
	if err := bad.Fit(src, driftToy(20, true, 19)); err == nil {
		t.Error("expected unknown reconstructor error")
	}
}

func TestM1InferenceIsStable(t *testing.T) {
	// §V-C2: with a small noise vector, repeated GAN reconstructions of the
	// same input lead to effectively identical downstream behaviour. Check
	// the reconstruction spread is small relative to the feature scale.
	r := NewCGAN(GANConfig{Epochs: 30, Conditional: true, Seed: 20, NoiseDim: 4})
	sep, src := fitToyReconstructor(t, r)
	scaled, err := sep.Scale(src.X[:20])
	if err != nil {
		t.Fatal(err)
	}
	inv, _, err := sep.Split(scaled)
	if err != nil {
		t.Fatal(err)
	}
	a, err := reconstructRows(r, inv)
	if err != nil {
		t.Fatal(err)
	}
	b, err := reconstructRows(r, inv)
	if err != nil {
		t.Fatal(err)
	}
	var spread float64
	var count float64
	for i := range a {
		for j := range a[i] {
			spread += math.Abs(a[i][j] - b[i][j])
			count++
		}
	}
	// The inference noise draw is pinned at fit time (the paper's M=1
	// premise, made operationally exact): repeated reconstructions of the
	// same input must agree bit-for-bit.
	if spread != 0 {
		t.Errorf("reconstruction spread across calls = %v; want 0 (pinned M=1 noise)", spread/count)
	}
}

func columnMean(x [][]float64, j int) float64 {
	var s float64
	for i := range x {
		s += x[i][j]
	}
	return s / float64(len(x))
}

// TestMonteCarloM1MatchesM16 quantifies §V-C2's claim: the M=1 estimate is
// effectively interchangeable with a proper M-sample Monte-Carlo average.
func TestMonteCarloM1MatchesM16(t *testing.T) {
	r := NewCGAN(GANConfig{Epochs: 30, Conditional: true, Seed: 33, NoiseDim: 4})
	sep, src := fitToyReconstructor(t, r)
	scaled, err := sep.Scale(src.X[:100])
	if err != nil {
		t.Fatal(err)
	}
	inv, _, err := sep.Split(scaled)
	if err != nil {
		t.Fatal(err)
	}
	m1, err := reconstructRows(r, inv)
	if err != nil {
		t.Fatal(err)
	}
	m16, err := r.ReconstructMC(inv, 16)
	if err != nil {
		t.Fatal(err)
	}
	var diff, count float64
	for i := range m1 {
		for j := range m1[i] {
			diff += math.Abs(m1[i][j] - m16[i][j])
			count++
		}
	}
	if avg := diff / count; avg > 0.12 {
		t.Errorf("M=1 vs M=16 mean abs diff = %.3f; want small (§V-C2)", avg)
	}
	if _, err := r.ReconstructMC(inv, 0); err == nil {
		t.Error("expected error for m=0")
	}
}
