package causal

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"netdrift/internal/dataset"
	"netdrift/internal/scm"
)

func TestPartialCorrChain(t *testing.T) {
	// X -> Y -> Z: corr(X,Z) != 0 but partial corr(X,Z | Y) ~ 0.
	rng := rand.New(rand.NewSource(1))
	n := 3000
	x := make([][]float64, n)
	for i := range x {
		a := rng.NormFloat64()
		b := 2*a + 0.3*rng.NormFloat64()
		c := -b + 0.3*rng.NormFloat64()
		x[i] = []float64{a, b, c}
	}
	corr, err := CorrMatrix(x)
	if err != nil {
		t.Fatal(err)
	}
	marg, err := PartialCorr(corr, 0, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(marg) < 0.8 {
		t.Errorf("marginal corr(X,Z) = %v; want strong", marg)
	}
	part, err := PartialCorr(corr, 0, 2, []int{1})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(part) > 0.1 {
		t.Errorf("partial corr(X,Z|Y) = %v; want ~0", part)
	}
}

func TestPartialCorrSelf(t *testing.T) {
	corr, _ := CorrMatrix([][]float64{{1, 2}, {2, 1}, {3, 3}, {0, 1}})
	r, err := PartialCorr(corr, 1, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r != 1 {
		t.Errorf("self partial corr = %v; want 1", r)
	}
}

func TestCITester(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	n := 800
	x := make([][]float64, n)
	for i := range x {
		a := rng.NormFloat64()
		x[i] = []float64{a, a + 0.1*rng.NormFloat64(), rng.NormFloat64()}
	}
	tester, err := NewCITester(x)
	if err != nil {
		t.Fatal(err)
	}
	if tester.n != n {
		t.Errorf("N = %d; want %d", tester.n, n)
	}
	pDep, err := tester.PValue(0, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if pDep > 1e-10 {
		t.Errorf("p-value for dependent pair = %v; want ~0", pDep)
	}
	pInd, err := tester.PValue(0, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if pInd < 0.01 {
		t.Errorf("p-value for independent pair = %v; want > 0.01", pInd)
	}
}

func TestNewCITesterTooFewSamples(t *testing.T) {
	if _, err := NewCITester([][]float64{{1, 2}}); !errors.Is(err, ErrNoData) {
		t.Errorf("err = %v; want ErrNoData", err)
	}
}

// buildShiftScenario samples a small SCM observationally and under soft
// interventions on known targets.
func buildShiftScenario(t *testing.T, nSrc, nTgt int, seed int64) (src, tgt [][]float64, targets []int) {
	t.Helper()
	model, err := scm.RandomModel(scm.RandomConfig{NumFeatures: 20, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	// Intervene on leaf-ish nodes: pick targets without descendants among
	// later nodes by taking nodes whose index never appears as a parent.
	hasChild := make([]bool, 20)
	for _, nd := range model.Nodes {
		for _, p := range nd.Parents {
			hasChild[p] = true
		}
	}
	var leaves []int
	for i, hc := range hasChild {
		if !hc {
			leaves = append(leaves, i)
		}
	}
	if len(leaves) < 3 {
		t.Fatalf("model has too few leaves: %v", leaves)
	}
	var ivs []scm.Intervention
	for _, l := range leaves[:3] {
		ivs = append(ivs, scm.Intervention{Target: l, Kind: scm.MeanShift, Amount: 3})
	}
	src, err = model.Sample(scm.SampleConfig{N: nSrc, Rng: rand.New(rand.NewSource(seed + 1))})
	if err != nil {
		t.Fatal(err)
	}
	tgt, err = model.Sample(scm.SampleConfig{N: nTgt, Interventions: ivs, Rng: rand.New(rand.NewSource(seed + 2))})
	if err != nil {
		t.Fatal(err)
	}
	return src, tgt, scm.Targets(ivs)
}

func TestFindVariantFeaturesRecoversTargets(t *testing.T) {
	src, tgt, targets := buildShiftScenario(t, 1500, 300, 7)
	res, err := FindVariantFeatures(src, tgt, FNodeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	found := map[int]bool{}
	for _, v := range res.Variant {
		found[v] = true
	}
	for _, want := range targets {
		if !found[want] {
			t.Errorf("true target %d not identified; variant = %v", want, res.Variant)
		}
	}
	// Precision: at most a couple of false positives on 17 invariant
	// features at alpha=0.01.
	if extras := len(res.Variant) - len(targets); extras > 2 {
		t.Errorf("%d false-positive variant features: %v (targets %v)", extras, res.Variant, targets)
	}
	if len(res.Variant)+len(res.Invariant) != 20 {
		t.Error("variant + invariant must partition the features")
	}
}

func TestFindVariantFeaturesFewShotPower(t *testing.T) {
	// Detection count grows with target sample size (paper §VI-C).
	var counts []int
	for _, nTgt := range []int{12, 60, 300} {
		src, tgt, _ := buildShiftScenario(t, 1500, nTgt, 11)
		res, err := FindVariantFeatures(src, tgt, FNodeConfig{})
		if err != nil {
			t.Fatal(err)
		}
		counts = append(counts, len(res.Variant))
	}
	if counts[0] > counts[2] {
		t.Errorf("variant count should not shrink with more target data: %v", counts)
	}
	if counts[2] == 0 {
		t.Error("no variant features found with 300 target samples")
	}
}

func TestFindVariantFeaturesNoShift(t *testing.T) {
	// Same distribution in both domains: nearly nothing should be flagged.
	model, err := scm.RandomModel(scm.RandomConfig{NumFeatures: 15, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	src, _ := model.Sample(scm.SampleConfig{N: 1000, Rng: rand.New(rand.NewSource(4))})
	tgt, _ := model.Sample(scm.SampleConfig{N: 200, Rng: rand.New(rand.NewSource(5))})
	res, err := FindVariantFeatures(src, tgt, FNodeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Variant) > 1 {
		t.Errorf("false positives without shift: %v", res.Variant)
	}
}

func TestFindVariantFeaturesErrors(t *testing.T) {
	if _, err := FindVariantFeatures(nil, [][]float64{{1}}, FNodeConfig{}); err == nil {
		t.Error("expected error for empty source")
	}
	if _, err := FindVariantFeatures([][]float64{{1, 2}}, [][]float64{{1}}, FNodeConfig{}); err == nil {
		t.Error("expected error for width mismatch")
	}
}

func TestMarginalOnlyFlagsDescendants(t *testing.T) {
	// Chain X0 -> X1 -> X2 with intervention on X0: marginal-only flags the
	// whole chain; the conditional search exonerates the descendants.
	model := &scm.Model{Nodes: []scm.Node{
		{NL: scm.Linear, NoiseStd: 1},
		{Parents: []int{0}, Weights: []float64{1.5}, NL: scm.Linear, NoiseStd: 0.4},
		{Parents: []int{1}, Weights: []float64{1.2}, NL: scm.Linear, NoiseStd: 0.4},
		{NL: scm.Linear, NoiseStd: 1}, // unrelated
	}}
	ivs := []scm.Intervention{{Target: 0, Kind: scm.MeanShift, Amount: 4}}
	src, err := model.Sample(scm.SampleConfig{N: 2000, Rng: rand.New(rand.NewSource(6))})
	if err != nil {
		t.Fatal(err)
	}
	tgt, err := model.Sample(scm.SampleConfig{N: 500, Interventions: ivs, Rng: rand.New(rand.NewSource(7))})
	if err != nil {
		t.Fatal(err)
	}

	marg, err := FindVariantFeatures(src, tgt, FNodeConfig{MarginalOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(marg.Variant) < 3 {
		t.Errorf("marginal-only should flag the full chain, got %v", marg.Variant)
	}

	cond, err := FindVariantFeatures(src, tgt, FNodeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if !contains(cond.Variant, 0) {
		t.Errorf("conditional search must keep the true target 0: %v", cond.Variant)
	}
	if contains(cond.Variant, 2) {
		t.Errorf("conditional search should exonerate descendant 2: %v", cond.Variant)
	}
}

func TestFindVariantOn5GCGroundTruth(t *testing.T) {
	if testing.Short() {
		t.Skip("5GC-scale FS test skipped in -short mode")
	}
	d, err := dataset.Synthetic5GC(dataset.FiveGCConfig{
		Seed: 13, SourceSamples: 800, TargetTrainPool: 160, TargetTestSamples: 32,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := FindVariantFeatures(d.Source.X, d.TargetTrain.X, FNodeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	truth := map[int]bool{}
	for _, v := range d.TrueVariant {
		truth[v] = true
	}
	var tp int
	for _, v := range res.Variant {
		if truth[v] {
			tp++
		}
	}
	recall := float64(tp) / float64(len(d.TrueVariant))
	precision := 0.0
	if len(res.Variant) > 0 {
		precision = float64(tp) / float64(len(res.Variant))
	}
	if recall < 0.5 {
		t.Errorf("recall = %.2f (found %d of %d); want >= 0.5", recall, tp, len(d.TrueVariant))
	}
	if precision < 0.7 {
		t.Errorf("precision = %.2f; want >= 0.7", precision)
	}
	t.Logf("5GC FS: %d variant found, recall %.2f precision %.2f", len(res.Variant), recall, precision)
}

func TestSubsetsUpTo(t *testing.T) {
	var got [][]int
	subsetsUpTo([]int{1, 2, 3}, 2, func(cond []int) bool {
		got = append(got, append([]int(nil), cond...))
		return true
	})
	// 3 singletons + 3 pairs, sizes ascending, lexicographic within a size.
	want := [][]int{{1}, {2}, {3}, {1, 2}, {1, 3}, {2, 3}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("subsets = %v; want %v", got, want)
	}
	n := 0
	subsetsUpTo(nil, 2, func([]int) bool { n++; return true })
	if n != 0 {
		t.Error("empty pool should have no subsets")
	}
	// Lazy enumeration must stop as soon as yield returns false.
	n = 0
	subsetsUpTo([]int{1, 2, 3, 4, 5}, 3, func([]int) bool { n++; return n < 2 })
	if n != 2 {
		t.Errorf("enumeration continued after stop: %d yields", n)
	}
}

func contains(xs []int, v int) bool {
	for _, x := range xs {
		if x == v {
			return true
		}
	}
	return false
}
