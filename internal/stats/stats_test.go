package stats

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMeanVarianceStdDev(t *testing.T) {
	tests := []struct {
		name           string
		xs             []float64
		mean, variance float64
	}{
		{name: "empty", xs: nil, mean: 0, variance: 0},
		{name: "single", xs: []float64{5}, mean: 5, variance: 0},
		{name: "simple", xs: []float64{1, 2, 3, 4}, mean: 2.5, variance: 5.0 / 3.0},
		{name: "constant", xs: []float64{7, 7, 7}, mean: 7, variance: 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := Mean(tt.xs); math.Abs(got-tt.mean) > 1e-12 {
				t.Errorf("Mean = %v; want %v", got, tt.mean)
			}
			if got := Variance(tt.xs); math.Abs(got-tt.variance) > 1e-12 {
				t.Errorf("Variance = %v; want %v", got, tt.variance)
			}
			if got := StdDev(tt.xs); math.Abs(got-math.Sqrt(tt.variance)) > 1e-12 {
				t.Errorf("StdDev = %v; want %v", got, math.Sqrt(tt.variance))
			}
		})
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	q, err := Quantile(xs, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if q != 2.5 {
		t.Errorf("median = %v; want 2.5", q)
	}
	if q, _ := Quantile(xs, 0); q != 1 {
		t.Errorf("q0 = %v; want 1", q)
	}
	if q, _ := Quantile(xs, 1); q != 4 {
		t.Errorf("q1 = %v; want 4", q)
	}
	if _, err := Quantile(nil, 0.5); !errors.Is(err, ErrEmpty) {
		t.Errorf("empty err = %v; want ErrEmpty", err)
	}
	if _, err := Quantile(xs, 1.5); err == nil {
		t.Error("expected error for q>1")
	}
}

func TestFisherZPValue(t *testing.T) {
	// Strong correlation with many samples: tiny p-value.
	if p := FisherZPValue(0.9, 200, 0); p > 1e-10 {
		t.Errorf("p-value for r=0.9, n=200 = %v; want ~0", p)
	}
	// Zero correlation: p-value 1.
	if p := FisherZPValue(0, 200, 0); p != 1 {
		t.Errorf("p-value for r=0 = %v; want 1", p)
	}
	// Insufficient samples: cannot reject.
	if p := FisherZPValue(0.99, 4, 2); p != 1 {
		t.Errorf("p-value with df<=0 = %v; want 1", p)
	}
	// Monotone in |r|.
	if FisherZPValue(0.5, 50, 0) >= FisherZPValue(0.3, 50, 0) {
		t.Error("p-value should decrease with |r|")
	}
}

func TestMinMaxScaler(t *testing.T) {
	s := NewMinMaxScaler(-1, 1)
	x := [][]float64{{0, 10}, {5, 20}, {10, 30}}
	if err := s.Fit(x); err != nil {
		t.Fatal(err)
	}
	got, err := s.Transform(x)
	if err != nil {
		t.Fatal(err)
	}
	want := [][]float64{{-1, -1}, {0, 0}, {1, 1}}
	for i := range want {
		for j := range want[i] {
			if math.Abs(got[i][j]-want[i][j]) > 1e-12 {
				t.Errorf("Transform[%d][%d] = %v; want %v", i, j, got[i][j], want[i][j])
			}
		}
	}
	// Out-of-range values clamp.
	clamped, err := s.Transform([][]float64{{-5, 100}})
	if err != nil {
		t.Fatal(err)
	}
	if clamped[0][0] != -1 || clamped[0][1] != 1 {
		t.Errorf("clamping failed: %v", clamped[0])
	}
}

func TestMinMaxScalerConstantColumn(t *testing.T) {
	s := NewMinMaxScaler(-1, 1)
	x := [][]float64{{5, 1}, {5, 2}}
	if err := s.Fit(x); err != nil {
		t.Fatal(err)
	}
	got, err := s.Transform(x)
	if err != nil {
		t.Fatal(err)
	}
	if got[0][0] != 0 || got[1][0] != 0 {
		t.Errorf("constant column should map to midpoint 0, got %v, %v", got[0][0], got[1][0])
	}
}

func TestScalerNotFitted(t *testing.T) {
	var s MinMaxScaler
	if _, err := s.Transform([][]float64{{1}}); !errors.Is(err, ErrNotFitted) {
		t.Errorf("err = %v; want ErrNotFitted", err)
	}
	var z StandardScaler
	if _, err := z.Transform([][]float64{{1}}); !errors.Is(err, ErrNotFitted) {
		t.Errorf("err = %v; want ErrNotFitted", err)
	}
}

func TestStandardScaler(t *testing.T) {
	s := NewStandardScaler()
	x := [][]float64{{1, 100}, {2, 200}, {3, 300}, {4, 400}}
	if err := s.Fit(x); err != nil {
		t.Fatal(err)
	}
	got, err := s.Transform(x)
	if err != nil {
		t.Fatal(err)
	}
	// Each column should have ~0 mean, ~1 std.
	for j := 0; j < 2; j++ {
		col := make([]float64, len(got))
		for i := range got {
			col[i] = got[i][j]
		}
		if m := Mean(col); math.Abs(m) > 1e-12 {
			t.Errorf("col %d mean = %v; want 0", j, m)
		}
		if sd := StdDev(col); math.Abs(sd-1) > 1e-12 {
			t.Errorf("col %d std = %v; want 1", j, sd)
		}
	}
}

func TestGMMTwoWellSeparatedClusters(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var x [][]float64
	labels := make([]int, 0, 300)
	for i := 0; i < 200; i++ {
		x = append(x, []float64{rng.NormFloat64() * 0.5, rng.NormFloat64() * 0.5})
		labels = append(labels, 0)
	}
	for i := 0; i < 100; i++ {
		x = append(x, []float64{8 + rng.NormFloat64()*0.5, 8 + rng.NormFloat64()*0.5})
		labels = append(labels, 1)
	}
	g, err := FitGMM(x, GMMConfig{K: 2, Seed: 1, Restarts: 3})
	if err != nil {
		t.Fatal(err)
	}
	pred, err := g.Predict(x)
	if err != nil {
		t.Fatal(err)
	}
	// Cluster indices are arbitrary; check agreement up to relabeling.
	var agree, disagree int
	for i := range pred {
		if pred[i] == labels[i] {
			agree++
		} else {
			disagree++
		}
	}
	acc := math.Max(float64(agree), float64(disagree)) / float64(len(pred))
	if acc < 0.99 {
		t.Errorf("GMM clustering accuracy = %v; want >= 0.99", acc)
	}
	// The larger cluster should have ~2/3 weight.
	w := g.weights
	if math.Abs(math.Max(w[0], w[1])-2.0/3.0) > 0.05 {
		t.Errorf("weights = %v; want approx [2/3, 1/3]", w)
	}
}

func TestGMMErrors(t *testing.T) {
	if _, err := FitGMM([][]float64{{1}}, GMMConfig{K: 0}); err == nil {
		t.Error("expected error for K=0")
	}
	if _, err := FitGMM([][]float64{{1}}, GMMConfig{K: 5}); err == nil {
		t.Error("expected error for n < K")
	}
	var g GMM
	if _, err := g.Predict([][]float64{{1}}); !errors.Is(err, ErrGMMNotFitted) {
		t.Errorf("err = %v; want ErrGMMNotFitted", err)
	}
}

// Property: min-max transform output always lies within [Lo, Hi].
func TestMinMaxScalerRangeProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		fit := randRows(rng, 20, 3)
		apply := randRows(rng, 20, 3)
		s := NewMinMaxScaler(-1, 1)
		if err := s.Fit(fit); err != nil {
			return false
		}
		out, err := s.Transform(apply)
		if err != nil {
			return false
		}
		for _, row := range out {
			for _, v := range row {
				if v < -1-1e-12 || v > 1+1e-12 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: Fisher-z p-values lie in [0, 1].
func TestFisherZPValueRangeProperty(t *testing.T) {
	f := func(r float64, n int) bool {
		r = math.Mod(r, 1) // keep |r| < 1
		if n < 0 {
			n = -n
		}
		n = n%1000 + 1
		p := FisherZPValue(r, n, 0)
		return p >= 0 && p <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func randRows(rng *rand.Rand, n, d int) [][]float64 {
	out := make([][]float64, n)
	for i := range out {
		row := make([]float64, d)
		for j := range row {
			row[j] = rng.NormFloat64() * 10
		}
		out[i] = row
	}
	return out
}
