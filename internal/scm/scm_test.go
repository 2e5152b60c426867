package scm

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"netdrift/internal/stats"
)

func chainModel() *Model {
	// X0 -> X1 -> X2
	return &Model{Nodes: []Node{
		{NL: Linear, NoiseStd: 1},
		{Parents: []int{0}, Weights: []float64{2}, NL: Linear, NoiseStd: 0.1},
		{Parents: []int{1}, Weights: []float64{1}, NL: Linear, NoiseStd: 0.1},
	}}
}

func TestValidate(t *testing.T) {
	tests := []struct {
		name    string
		model   *Model
		wantErr bool
	}{
		{name: "valid chain", model: chainModel()},
		{name: "empty", model: &Model{}, wantErr: true},
		{
			name: "parent after child",
			model: &Model{Nodes: []Node{
				{Parents: []int{1}, Weights: []float64{1}, NL: Linear},
				{NL: Linear},
			}},
			wantErr: true,
		},
		{
			name: "weights mismatch",
			model: &Model{Nodes: []Node{
				{NL: Linear},
				{Parents: []int{0}, Weights: nil, NL: Linear},
			}},
			wantErr: true,
		},
		{
			name:    "negative noise",
			model:   &Model{Nodes: []Node{{NL: Linear, NoiseStd: -1}}},
			wantErr: true,
		},
		{
			name:    "bad nonlinearity",
			model:   &Model{Nodes: []Node{{NoiseStd: 1}}},
			wantErr: true,
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := tt.model.Validate()
			if tt.wantErr && !errors.Is(err, ErrInvalidModel) {
				t.Errorf("Validate() = %v; want ErrInvalidModel", err)
			}
			if !tt.wantErr && err != nil {
				t.Errorf("Validate() = %v; want nil", err)
			}
		})
	}
}

func TestSampleShapeAndDeterminism(t *testing.T) {
	m := chainModel()
	x1, err := m.Sample(SampleConfig{N: 50, Rng: rand.New(rand.NewSource(3))})
	if err != nil {
		t.Fatal(err)
	}
	if len(x1) != 50 || len(x1[0]) != 3 {
		t.Fatalf("sample shape = %dx%d; want 50x3", len(x1), len(x1[0]))
	}
	x2, err := m.Sample(SampleConfig{N: 50, Rng: rand.New(rand.NewSource(3))})
	if err != nil {
		t.Fatal(err)
	}
	for i := range x1 {
		for j := range x1[i] {
			if x1[i][j] != x2[i][j] {
				t.Fatal("same seed must reproduce identical samples")
			}
		}
	}
}

func TestSampleErrors(t *testing.T) {
	m := chainModel()
	rng := rand.New(rand.NewSource(1))
	if _, err := m.Sample(SampleConfig{N: 0, Rng: rng}); err == nil {
		t.Error("expected error for N=0")
	}
	if _, err := m.Sample(SampleConfig{N: 5}); err == nil {
		t.Error("expected error for nil Rng")
	}
	if _, err := m.Sample(SampleConfig{N: 5, Rng: rng,
		Interventions: []Intervention{{Target: 99, Kind: MeanShift}}}); err == nil {
		t.Error("expected error for out-of-range target")
	}
	if _, err := m.Sample(SampleConfig{N: 5, Rng: rng,
		Exogenous: [][]float64{{1, 2, 3}}}); err == nil {
		t.Error("expected error for wrong exogenous row count")
	}
}

func TestChainCorrelationStructure(t *testing.T) {
	m := chainModel()
	x, err := m.Sample(SampleConfig{N: 4000, Rng: rand.New(rand.NewSource(11))})
	if err != nil {
		t.Fatal(err)
	}
	c0 := column(x, 0)
	c1 := column(x, 1)
	c2 := column(x, 2)
	// X1 = 2*X0 + small noise: strong positive correlation.
	if r := correlation(c0, c1); r < 0.95 {
		t.Errorf("corr(X0,X1) = %v; want > 0.95", r)
	}
	// X2 = X1 + small noise: correlation flows down the chain.
	if r := correlation(c0, c2); r < 0.9 {
		t.Errorf("corr(X0,X2) = %v; want > 0.9", r)
	}
}

func TestMeanShiftIntervention(t *testing.T) {
	m := chainModel()
	rngA := rand.New(rand.NewSource(5))
	rngB := rand.New(rand.NewSource(6))
	obs, err := m.Sample(SampleConfig{N: 3000, Rng: rngA})
	if err != nil {
		t.Fatal(err)
	}
	ivs := []Intervention{{Target: 1, Kind: MeanShift, Amount: 5}}
	itv, err := m.Sample(SampleConfig{N: 3000, Interventions: ivs, Rng: rngB})
	if err != nil {
		t.Fatal(err)
	}
	// Target mean shifts by ~5.
	d1 := stats.Mean(column(itv, 1)) - stats.Mean(column(obs, 1))
	if math.Abs(d1-5) > 0.3 {
		t.Errorf("mean shift on X1 = %v; want ~5", d1)
	}
	// Downstream node X2 inherits the shift (X2 = X1 + noise).
	d2 := stats.Mean(column(itv, 2)) - stats.Mean(column(obs, 2))
	if math.Abs(d2-5) > 0.3 {
		t.Errorf("propagated shift on X2 = %v; want ~5", d2)
	}
	// Upstream node X0 is unaffected.
	d0 := stats.Mean(column(itv, 0)) - stats.Mean(column(obs, 0))
	if math.Abs(d0) > 0.15 {
		t.Errorf("shift on X0 = %v; want ~0", d0)
	}
}

func TestNoiseScaleIntervention(t *testing.T) {
	m := chainModel()
	obs, _ := m.Sample(SampleConfig{N: 4000, Rng: rand.New(rand.NewSource(7))})
	ivs := []Intervention{{Target: 0, Kind: NoiseScale, Amount: 3}}
	itv, _ := m.Sample(SampleConfig{N: 4000, Interventions: ivs, Rng: rand.New(rand.NewSource(8))})
	vObs := stats.Variance(column(obs, 0))
	vItv := stats.Variance(column(itv, 0))
	if ratio := vItv / vObs; math.Abs(ratio-9) > 1.5 {
		t.Errorf("variance ratio = %v; want ~9", ratio)
	}
}

func TestMechanismScaleIntervention(t *testing.T) {
	m := chainModel()
	ivs := []Intervention{{Target: 1, Kind: MechanismScale, Amount: 0}}
	itv, _ := m.Sample(SampleConfig{N: 4000, Interventions: ivs, Rng: rand.New(rand.NewSource(9))})
	// With weight zeroed, X1 no longer depends on X0.
	if r := correlation(column(itv, 0), column(itv, 1)); math.Abs(r) > 0.06 {
		t.Errorf("corr(X0,X1) after severing = %v; want ~0", r)
	}
}

func TestExogenousInput(t *testing.T) {
	m := &Model{Nodes: []Node{{NL: Linear, NoiseStd: 0.01}}}
	exog := [][]float64{{10}, {20}, {30}}
	x, err := m.Sample(SampleConfig{N: 3, Exogenous: exog, Rng: rand.New(rand.NewSource(1))})
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []float64{10, 20, 30} {
		if math.Abs(x[i][0]-want) > 0.2 {
			t.Errorf("sample %d = %v; want ~%v", i, x[i][0], want)
		}
	}
}

func TestTargets(t *testing.T) {
	ivs := []Intervention{
		{Target: 5, Kind: MeanShift},
		{Target: 2, Kind: NoiseScale},
		{Target: 5, Kind: NoiseScale}, // duplicate target
	}
	got := Targets(ivs)
	if len(got) != 2 || got[0] != 2 || got[1] != 5 {
		t.Errorf("Targets = %v; want [2 5]", got)
	}
	if got := Targets(nil); got != nil {
		t.Errorf("Targets(nil) = %v; want nil", got)
	}
}

func TestRandomModel(t *testing.T) {
	m, err := RandomModel(RandomConfig{NumFeatures: 100, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if m.NumFeatures() != 100 {
		t.Fatalf("NumFeatures = %d; want 100", m.NumFeatures())
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	// Should produce some edges.
	var edges int
	for _, nd := range m.Nodes {
		edges += len(nd.Parents)
	}
	if edges == 0 {
		t.Error("random model has no edges")
	}
	// Determinism with the same seed.
	m2, err := RandomModel(RandomConfig{NumFeatures: 100, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	for i := range m.Nodes {
		if m.Nodes[i].Bias != m2.Nodes[i].Bias {
			t.Fatal("same seed must produce identical models")
		}
	}
}

func TestRandomModelErrors(t *testing.T) {
	if _, err := RandomModel(RandomConfig{NumFeatures: 0}); err == nil {
		t.Error("expected error for zero features")
	}
}

// Property: observational resampling with different seeds preserves
// per-node means within statistical tolerance (the model is stationary).
func TestSampleStationarityProperty(t *testing.T) {
	m, err := RandomModel(RandomConfig{NumFeatures: 10, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	f := func(seed int64) bool {
		a, err := m.Sample(SampleConfig{N: 800, Rng: rand.New(rand.NewSource(seed))})
		if err != nil {
			return false
		}
		b, err := m.Sample(SampleConfig{N: 800, Rng: rand.New(rand.NewSource(seed + 1))})
		if err != nil {
			return false
		}
		for j := 0; j < 10; j++ {
			ca, cb := column(a, j), column(b, j)
			pooledSD := math.Sqrt(stats.Variance(ca)/800 + stats.Variance(cb)/800)
			if math.Abs(stats.Mean(ca)-stats.Mean(cb)) > 6*pooledSD+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}

func column(x [][]float64, j int) []float64 {
	out := make([]float64, len(x))
	for i := range x {
		out[i] = x[i][j]
	}
	return out
}

// correlation returns the Pearson correlation coefficient of xs and ys.
func correlation(xs, ys []float64) float64 {
	mx, my := stats.Mean(xs), stats.Mean(ys)
	var sxy, sxx, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	return sxy / math.Sqrt(sxx*syy)
}
