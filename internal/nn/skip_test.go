package nn

import (
	"math"
	"math/rand"
	"testing"
)

func TestSkipConcatForwardShape(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	inner := NewNetwork(NewDense(3, 5, rng), NewTanh())
	skip := NewSkipConcat(inner)
	x := randBatch(rng, 4, 3)
	out := skip.ForwardT(rowsT(x)).ToRows()
	if len(out) != 4 || len(out[0]) != 8 {
		t.Fatalf("output shape = %dx%d; want 4x8", len(out), len(out[0]))
	}
	// The skip half must equal the input exactly.
	for i := range x {
		for j := range x[i] {
			if out[i][5+j] != x[i][j] {
				t.Fatal("skip half does not match input")
			}
		}
	}
}

func TestSkipConcatGradientCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	inner := NewNetwork(NewDense(3, 4, rng), NewTanh())
	net := NewNetwork(
		NewSkipConcat(inner),
		NewDense(7, 2, rng),
	)
	x := randBatch(rng, 3, 3)
	y := []int{0, 1, 0}
	lossFn, analytic := softmaxGradFns(t, net, x, y)
	checkParamGrads(t, net.Params(), lossFn, analytic, 1e-6)
}

func TestSkipConcatInputGradient(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	inner := NewNetwork(NewDense(2, 3, rng), NewTanh())
	net := NewNetwork(NewSkipConcat(inner), NewDense(5, 1, rng))
	x := randBatch(rng, 2, 2)
	targets := []float64{1, 0}
	var g Tensor
	bceMean(net.ForwardT(rowsT(x)), targets, &g)
	gin := net.BackwardT(&g).ToRows()
	const h = 1e-5
	for i := range x {
		for j := range x[i] {
			orig := x[i][j]
			x[i][j] = orig + h
			lp := bceMean(net.ForwardT(rowsT(x)), targets, &g)
			x[i][j] = orig - h
			lm := bceMean(net.ForwardT(rowsT(x)), targets, &g)
			x[i][j] = orig
			want := (lp - lm) / (2 * h)
			if math.Abs(gin[i][j]-want) > 1e-6*(1+math.Abs(want)) {
				t.Errorf("input grad[%d][%d] = %v; numerical %v", i, j, gin[i][j], want)
			}
		}
	}
}

func TestSkipConcatParams(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	inner := NewNetwork(NewDense(2, 3, rng))
	skip := NewSkipConcat(inner)
	if got, want := len(skip.Params()), len(inner.Params()); got != want {
		t.Errorf("Params() = %d; want %d (inner's)", got, want)
	}
}
