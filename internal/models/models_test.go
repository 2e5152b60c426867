package models

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"netdrift/internal/nn"
)

func blobs(n, d, k int, sep float64, rng *rand.Rand) ([][]float64, []int) {
	x := make([][]float64, n)
	y := make([]int, n)
	for i := 0; i < n; i++ {
		c := i % k
		row := make([]float64, d)
		for j := range row {
			row[j] = rng.NormFloat64()
		}
		row[c%d] += sep
		x[i] = row
		y[i] = c
	}
	return x, y
}

func testAccuracy(t *testing.T, c Classifier, x [][]float64, y []int) float64 {
	t.Helper()
	pred, err := PredictClasses(c, x)
	if err != nil {
		t.Fatal(err)
	}
	var correct int
	for i := range pred {
		if pred[i] == y[i] {
			correct++
		}
	}
	return float64(correct) / float64(len(y))
}

func TestAllClassifierFamiliesLearn(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	x, y := blobs(400, 8, 3, 4, rng)
	xTest, yTest := blobs(150, 8, 3, 4, rng)
	for _, kind := range AllKinds() {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			c, err := New(kind, Options{Seed: 7, Epochs: 20, Trees: 25})
			if err != nil {
				t.Fatal(err)
			}
			if c.Name() != kind.String() {
				t.Errorf("Name = %q; want %q", c.Name(), kind.String())
			}
			if err := c.Fit(x, y, 3); err != nil {
				t.Fatal(err)
			}
			if acc := testAccuracy(t, c, xTest, yTest); acc < 0.9 {
				t.Errorf("%s test accuracy = %v; want >= 0.9", kind, acc)
			}
		})
	}
}

func TestPredictBeforeFit(t *testing.T) {
	for _, kind := range AllKinds() {
		c, err := New(kind, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.PredictProba([][]float64{{1, 2}}); !errors.Is(err, ErrNotFitted) {
			t.Errorf("%s: err = %v; want ErrNotFitted", kind, err)
		}
	}
}

func TestFitValidation(t *testing.T) {
	c := NewMLPClassifier(Options{Epochs: 1})
	if err := c.Fit(nil, nil, 2); err == nil {
		t.Error("expected error for empty training set")
	}
	if err := c.Fit([][]float64{{1}}, []int{0, 1}, 2); err == nil {
		t.Error("expected error for length mismatch")
	}
	if err := c.Fit([][]float64{{1}}, []int{5}, 2); err == nil {
		t.Error("expected error for out-of-range label")
	}
	if err := c.Fit([][]float64{{1}}, []int{0}, 1); err == nil {
		t.Error("expected error for single class")
	}
}

func TestPredictWidthMismatch(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	x, y := blobs(60, 4, 2, 4, rng)
	c := NewMLPClassifier(Options{Seed: 1, Epochs: 3})
	if err := c.Fit(x, y, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := c.PredictProba([][]float64{{1, 2}}); err == nil {
		t.Error("expected width mismatch error")
	}
}

func TestProbabilitiesNormalized(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	x, y := blobs(120, 5, 3, 3, rng)
	for _, kind := range AllKinds() {
		c, _ := New(kind, Options{Seed: 5, Epochs: 5, Trees: 10})
		if err := c.Fit(x, y, 3); err != nil {
			t.Fatal(err)
		}
		probs, err := c.PredictProba(x[:10])
		if err != nil {
			t.Fatal(err)
		}
		for i, p := range probs {
			var s float64
			for _, v := range p {
				if v < -1e-12 {
					t.Errorf("%s: negative probability %v", kind, v)
				}
				s += v
			}
			if math.Abs(s-1) > 1e-6 {
				t.Errorf("%s row %d: probs sum to %v", kind, i, s)
			}
		}
	}
}

func TestDeterministicWithSeed(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	x, y := blobs(100, 4, 2, 3, rng)
	for _, kind := range AllKinds() {
		a, _ := New(kind, Options{Seed: 42, Epochs: 4, Trees: 8})
		b, _ := New(kind, Options{Seed: 42, Epochs: 4, Trees: 8})
		if err := a.Fit(x, y, 2); err != nil {
			t.Fatal(err)
		}
		if err := b.Fit(x, y, 2); err != nil {
			t.Fatal(err)
		}
		pa, _ := a.PredictProba(x[:5])
		pb, _ := b.PredictProba(x[:5])
		for i := range pa {
			for j := range pa[i] {
				if pa[i][j] != pb[i][j] {
					t.Fatalf("%s: same seed produced different predictions", kind)
				}
			}
		}
	}
}

func TestFeatureGateGradientCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	gate := nn.NewFeatureGate(3, rng)
	head := nn.NewDense(3, 2, rng)
	net := nn.NewNetwork(gate, nn.NewTanh(), head)
	x := [][]float64{{0.4, -0.8, 0.3}, {-0.2, 0.9, -0.5}}
	y := []int{0, 1}

	var in, g nn.Tensor
	lossFn := func() float64 {
		l, err := nn.SoftmaxCET(net.ForwardT(in.SetFromRows(x), true), y, &g)
		if err != nil {
			t.Fatal(err)
		}
		return l
	}
	nn.ZeroGrads(net.Params())
	lossFn()
	net.BackwardT(&g)

	const h = 1e-5
	for _, p := range gate.Params() {
		for i := range p.Data {
			orig := p.Data[i]
			p.Data[i] = orig + h
			lp := lossFn()
			p.Data[i] = orig - h
			lm := lossFn()
			p.Data[i] = orig
			want := (lp - lm) / (2 * h)
			if math.Abs(p.Grad[i]-want) > 1e-5*(1+math.Abs(want)) {
				t.Errorf("%s[%d]: grad = %v; numerical %v", p.Name, i, p.Grad[i], want)
			}
		}
	}
}

func TestFeatureGateInputGradient(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	gate := nn.NewFeatureGate(3, rng)
	x := [][]float64{{0.4, -0.8, 0.3}}
	target := [][]float64{{0.1, 0.2, -0.3}}
	var in, g nn.Tensor
	lossFn := func() float64 {
		l, _, _ := nn.MSE(gate.ForwardT(in.SetFromRows(x), true).ToRows(), target)
		return l
	}
	_, grad, _ := nn.MSE(gate.ForwardT(in.SetFromRows(x), true).ToRows(), target)
	gin := gate.BackwardT(g.SetFromRows(grad)).ToRows()
	const h = 1e-5
	for j := range x[0] {
		orig := x[0][j]
		x[0][j] = orig + h
		lp := lossFn()
		x[0][j] = orig - h
		lm := lossFn()
		x[0][j] = orig
		want := (lp - lm) / (2 * h)
		if math.Abs(gin[0][j]-want) > 1e-5*(1+math.Abs(want)) {
			t.Errorf("input grad[%d] = %v; numerical %v", j, gin[0][j], want)
		}
	}
}

func TestNewUnknownKind(t *testing.T) {
	if _, err := New(Kind(99), Options{}); err == nil {
		t.Error("expected error for unknown kind")
	}
}

// TestClassifiersLeaveInputsUnchanged pins the contract that lets one
// baselines.Adapted serve every classifier of a Table I cell: Fit and
// PredictProba never write to the rows or labels they are handed.
func TestClassifiersLeaveInputsUnchanged(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	x, y := blobs(90, 6, 3, 2, rng)
	xTest, _ := blobs(30, 6, 3, 2, rng)
	bits := func(rows [][]float64) [][]uint64 {
		out := make([][]uint64, len(rows))
		for i, row := range rows {
			for _, v := range row {
				out[i] = append(out[i], math.Float64bits(v))
			}
		}
		return out
	}
	wantX, wantY, wantTest := bits(x), append([]int(nil), y...), bits(xTest)
	for _, kind := range AllKinds() {
		c, err := New(kind, Options{Seed: 8, Epochs: 3, Trees: 5})
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Fit(x, y, 3); err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if !reflect.DeepEqual(bits(x), wantX) || !reflect.DeepEqual(y, wantY) {
			t.Errorf("%s: Fit changed its training rows or labels", kind)
		}
		if _, err := c.PredictProba(xTest); err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if !reflect.DeepEqual(bits(xTest), wantTest) {
			t.Errorf("%s: PredictProba changed its input rows", kind)
		}
	}
}

// TestSoftmaxPredictRejectsRaggedRows checks that the neural classifiers
// validate every row's width: a long row used to be truncated and a short
// one zero-padded, both predicted without an error.
func TestSoftmaxPredictRejectsRaggedRows(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	x, y := blobs(60, 4, 2, 3, rng)
	for _, kind := range []Kind{KindTNet, KindMLP} {
		c, err := New(kind, Options{Seed: 9, Epochs: 2})
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Fit(x, y, 2); err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		for _, bad := range [][]float64{{1, 2, 3, 4, 5}, {1, 2, 3}} {
			rows := [][]float64{x[0], bad, x[1]}
			if _, err := PredictClasses(c, rows); err == nil {
				t.Errorf("%s: row of width %d predicted without an error", kind, len(bad))
			}
		}
	}
}
