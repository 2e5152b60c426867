package nn

import (
	"math"
	"math/rand"
	"testing"
)

// numericalGrad computes d loss / d v by central differences, where get/set
// access the scalar being perturbed and lossFn recomputes the loss.
func numericalGrad(get func() float64, set func(float64), lossFn func() float64) float64 {
	const h = 1e-5
	orig := get()
	set(orig + h)
	lp := lossFn()
	set(orig - h)
	lm := lossFn()
	set(orig)
	return (lp - lm) / (2 * h)
}

// checkParamGrads verifies backprop parameter gradients of net against
// numerical differentiation of lossFn (which must run forward+loss in
// train mode deterministically).
func checkParamGrads(t *testing.T, params []*Param, lossFn func() float64, analytic func(), tol float64) {
	t.Helper()
	ZeroGrads(params)
	analytic()
	for _, p := range params {
		for i := range p.Data {
			want := numericalGrad(
				func() float64 { return p.Data[i] },
				func(v float64) { p.Data[i] = v },
				lossFn,
			)
			got := p.Grad[i]
			if math.Abs(got-want) > tol*(1+math.Abs(want)) {
				t.Errorf("param %s[%d]: grad = %v; numerical %v", p.Name, i, got, want)
			}
		}
	}
}

// rowsT copies rows into a fresh Tensor: the bridge from the tests'
// [][]float64 fixtures to the flat layer API (Tensor.ToRows is the way
// back). Each call reads x anew, so finite-difference perturbations show.
func rowsT(x [][]float64) *Tensor { return new(Tensor).SetFromRows(x) }

// softmaxGradFns returns checkParamGrads' loss and analytic closures for l
// trained with softmax cross-entropy on (x, y).
func softmaxGradFns(t *testing.T, l Layer, x [][]float64, y []int) (lossFn func() float64, analytic func()) {
	t.Helper()
	var grad Tensor
	lossFn = func() float64 {
		loss, err := SoftmaxCET(l.ForwardT(rowsT(x), true), y, &grad)
		if err != nil {
			t.Fatal(err)
		}
		return loss
	}
	analytic = func() {
		lossFn()
		l.BackwardT(&grad)
	}
	return lossFn, analytic
}

func TestDenseGradientCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	d := NewDense(3, 2, rng)
	x := [][]float64{{0.5, -1.2, 0.3}, {1.1, 0.2, -0.7}}
	y := []int{0, 1}
	lossFn, analytic := softmaxGradFns(t, d, x, y)
	checkParamGrads(t, d.Params(), lossFn, analytic, 1e-6)
}

func TestDenseInputGradientCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	d := NewDense(3, 2, rng)
	x := [][]float64{{0.5, -1.2, 0.3}}
	y := []int{1}
	lossFn, _ := softmaxGradFns(t, d, x, y)
	var g Tensor
	if _, err := SoftmaxCET(d.ForwardT(rowsT(x), true), y, &g); err != nil {
		t.Fatal(err)
	}
	gin := d.BackwardT(&g).ToRows()
	for j := range x[0] {
		want := numericalGrad(
			func() float64 { return x[0][j] },
			func(v float64) { x[0][j] = v },
			lossFn,
		)
		if math.Abs(gin[0][j]-want) > 1e-6*(1+math.Abs(want)) {
			t.Errorf("input grad[%d] = %v; numerical %v", j, gin[0][j], want)
		}
	}
}

func TestMLPGradientCheck(t *testing.T) {
	// Tanh keeps the loss smooth; ReLU's kink can sit within the finite-
	// difference step for unlucky seeds and void the numerical reference.
	// ReLU backward is covered by TestReLUGradientCheck below.
	rng := rand.New(rand.NewSource(3))
	net := NewMLP(MLPConfig{In: 4, Hidden: []int{5, 3}, Out: 2, Activation: NewTanh, Rng: rng})
	x := randBatch(rng, 3, 4)
	y := []int{0, 1, 0}
	lossFn, analytic := softmaxGradFns(t, net, x, y)
	checkParamGrads(t, net.Params(), lossFn, analytic, 1e-5)
}

func TestReLUGradientCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	net := NewNetwork(NewDense(3, 4, rng), NewReLU(), NewDense(4, 2, rng))
	x := randBatch(rng, 2, 3)
	y := []int{1, 0}
	// Verify no pre-activation sits near the ReLU kink for this seed, so
	// the numerical reference below is trustworthy.
	pre := net.Layers[0].ForwardT(rowsT(x), true).ToRows()
	for _, row := range pre {
		for _, v := range row {
			if math.Abs(v) < 1e-3 {
				t.Fatalf("pre-activation %v too close to ReLU kink; pick another seed", v)
			}
		}
	}
	lossFn, analytic := softmaxGradFns(t, net, x, y)
	checkParamGrads(t, net.Params(), lossFn, analytic, 1e-5)
}

func TestTanhSigmoidLeakyGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, tc := range []struct {
		name string
		act  func() Layer
	}{
		{"tanh", NewTanh},
		{"sigmoid", NewSigmoid},
		{"leaky", func() Layer { return NewLeakyReLU(0.2) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			net := NewNetwork(NewDense(3, 4, rng), tc.act(), NewDense(4, 2, rng))
			x := randBatch(rng, 2, 3)
			y := []int{1, 0}
			lossFn, analytic := softmaxGradFns(t, net, x, y)
			checkParamGrads(t, net.Params(), lossFn, analytic, 1e-5)
		})
	}
}

func TestBatchNormGradientCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	net := NewNetwork(NewDense(3, 4, rng), NewBatchNorm(4), NewReLU(), NewDense(4, 2, rng))
	x := randBatch(rng, 5, 3)
	y := []int{0, 1, 1, 0, 1}
	lossFn, analytic := softmaxGradFns(t, net, x, y)
	// Note: batch-norm running stats update every forward call, but the
	// loss in train mode only depends on batch stats, so numerical
	// differentiation stays valid.
	checkParamGrads(t, net.Params(), lossFn, analytic, 1e-4)
}

func TestBatchNormInferenceUsesRunningStats(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	bn := NewBatchNorm(2)
	// Train on a shifted batch a few times.
	batch := [][]float64{{10, -4}, {12, -6}, {8, -2}}
	for i := 0; i < 50; i++ {
		bn.ForwardT(rowsT(batch), true)
	}
	// A single inference sample equal to the running mean maps near beta=0.
	out := bn.ForwardT(rowsT([][]float64{{10, -4}}), false).ToRows()
	if math.Abs(out[0][0]) > 0.2 || math.Abs(out[0][1]) > 0.2 {
		t.Errorf("inference at running mean = %v; want ~[0 0]", out[0])
	}
	_ = rng
}

func TestDropoutTrainVsEval(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	d := NewDropout(0.5, rng)
	x := rowsT([][]float64{{1, 1, 1, 1, 1, 1, 1, 1}})
	for j, v := range d.ForwardT(x, false).Row(0) {
		if v != 1 {
			t.Errorf("eval output[%d] = %v; want 1", j, v)
		}
	}
	// In train mode roughly half are dropped and survivors scaled by 2.
	var zeros, twos int
	for i := 0; i < 200; i++ {
		for _, v := range d.ForwardT(x, true).Row(0) {
			switch v {
			case 0:
				zeros++
			case 2:
				twos++
			default:
				t.Fatalf("unexpected dropout output %v", v)
			}
		}
	}
	total := zeros + twos
	if frac := float64(zeros) / float64(total); frac < 0.4 || frac > 0.6 {
		t.Errorf("drop fraction = %v; want ~0.5", frac)
	}
}

func TestGradReverse(t *testing.T) {
	g := &GradReverse{Lambda: 2}
	out := g.ForwardT(rowsT([][]float64{{1, 2}}), true).Row(0)
	if out[0] != 1 || out[1] != 2 {
		t.Error("forward must be identity")
	}
	gin := g.BackwardT(rowsT([][]float64{{3, -1}})).Row(0)
	if gin[0] != -6 || gin[1] != 2 {
		t.Errorf("backward = %v; want [-6 2]", gin)
	}
}

func TestSoftmaxCEKnownValue(t *testing.T) {
	// Uniform logits over 4 classes: loss = log(4).
	logits := rowsT([][]float64{{0, 0, 0, 0}})
	var g Tensor
	l, err := SoftmaxCET(logits, []int{2}, &g)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(l-math.Log(4)) > 1e-12 {
		t.Errorf("loss = %v; want log(4)", l)
	}
	// Gradient: p - onehot = [.25 .25 -.75 .25].
	want := []float64{0.25, 0.25, -0.75, 0.25}
	for j := range want {
		if math.Abs(g.At(0, j)-want[j]) > 1e-12 {
			t.Errorf("grad[%d] = %v; want %v", j, g.At(0, j), want[j])
		}
	}
	if _, err := SoftmaxCET(logits, []int{7}, &g); err == nil {
		t.Error("expected error for out-of-range label")
	}
	if _, err := SoftmaxCET(rowsT(nil), nil, &g); err == nil {
		t.Error("expected error for empty batch")
	}
}

func TestBCEWithLogitsGradientCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	net := NewNetwork(NewDense(3, 4, rng), NewLeakyReLU(0.2), NewDense(4, 1, rng))
	x := randBatch(rng, 4, 3)
	targets := []float64{1, 0, 1, 0}
	lossFn := func() float64 {
		l, _, _ := BCEWithLogits(net.ForwardT(rowsT(x), true).ToRows(), targets)
		return l
	}
	analytic := func() {
		_, g, _ := BCEWithLogits(net.ForwardT(rowsT(x), true).ToRows(), targets)
		net.BackwardT(rowsT(g))
	}
	checkParamGrads(t, net.Params(), lossFn, analytic, 1e-6)
}

func TestMSEGradientCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	net := NewNetwork(NewDense(2, 5, rng), NewTanh(), NewDense(5, 3, rng))
	x := randBatch(rng, 3, 2)
	target := randBatch(rng, 3, 3)
	lossFn := func() float64 {
		l, _, _ := MSE(net.ForwardT(rowsT(x), true).ToRows(), target)
		return l
	}
	analytic := func() {
		_, g, _ := MSE(net.ForwardT(rowsT(x), true).ToRows(), target)
		net.BackwardT(rowsT(g))
	}
	checkParamGrads(t, net.Params(), lossFn, analytic, 1e-6)
}

func TestSupConLossGradientCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	emb := randBatch(rng, 5, 4)
	y := []int{0, 0, 1, 1, 0}
	_, grad, err := SupConLoss(emb, y, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	for i := range emb {
		for j := range emb[i] {
			want := numericalGrad(
				func() float64 { return emb[i][j] },
				func(v float64) { emb[i][j] = v },
				func() float64 {
					l, _, _ := SupConLoss(emb, y, 0.5)
					return l
				},
			)
			if math.Abs(grad[i][j]-want) > 1e-5*(1+math.Abs(want)) {
				t.Errorf("supcon grad[%d][%d] = %v; numerical %v", i, j, grad[i][j], want)
			}
		}
	}
}

func TestSupConLossNoPositives(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	emb := randBatch(rng, 3, 4)
	l, g, err := SupConLoss(emb, []int{0, 1, 2}, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if l != 0 {
		t.Errorf("loss = %v; want 0 with no positive pairs", l)
	}
	for i := range g {
		for j := range g[i] {
			if g[i][j] != 0 {
				t.Error("gradient must be zero with no positive pairs")
			}
		}
	}
}

func TestAdamReducesLoss(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	// Learn XOR-ish separable toy problem.
	x := [][]float64{{0, 0}, {0, 1}, {1, 0}, {1, 1}}
	y := []int{0, 1, 1, 0}
	net := NewMLP(MLPConfig{In: 2, Hidden: []int{16}, Out: 2, Rng: rng})
	opt := NewAdam(0.01, 0)
	var first, last float64
	var g Tensor
	for epoch := 0; epoch < 500; epoch++ {
		l, err := SoftmaxCET(net.ForwardT(rowsT(x), true), y, &g)
		if err != nil {
			t.Fatal(err)
		}
		if epoch == 0 {
			first = l
		}
		last = l
		net.BackwardT(&g)
		opt.Step(net.Params())
	}
	if last > first/10 {
		t.Errorf("Adam failed to learn XOR: first=%v last=%v", first, last)
	}
	// Predictions must be correct.
	out := net.ForwardT(rowsT(x), false)
	for i := range x {
		if argmax(out.Row(i)) != y[i] {
			t.Errorf("sample %d misclassified", i)
		}
	}
}

func TestSGDMomentumReducesLoss(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	x := randBatch(rng, 32, 4)
	y := make([]int, 32)
	for i := range y {
		if x[i][0]+x[i][1] > 0 {
			y[i] = 1
		}
	}
	net := NewMLP(MLPConfig{In: 4, Hidden: []int{8}, Out: 2, Rng: rng})
	opt := NewSGD(0.1, 0.9)
	var first, last float64
	var g Tensor
	for epoch := 0; epoch < 200; epoch++ {
		l, _ := SoftmaxCET(net.ForwardT(rowsT(x), true), y, &g)
		if epoch == 0 {
			first = l
		}
		last = l
		net.BackwardT(&g)
		opt.Step(net.Params())
	}
	if last >= first/2 {
		t.Errorf("SGD failed to reduce loss: first=%v last=%v", first, last)
	}
}

func TestMinibatches(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	_, batches := MinibatchesInto(10, 4, rng, nil, nil)
	var total int
	seen := map[int]bool{}
	for _, b := range batches {
		total += len(b)
		for _, i := range b {
			if seen[i] {
				t.Fatalf("index %d appears twice", i)
			}
			seen[i] = true
		}
	}
	if total != 10 {
		t.Errorf("total indices = %d; want 10", total)
	}
	// 9 samples with batch 4 would leave a singleton: must be merged.
	_, batches = MinibatchesInto(9, 4, rng, nil, nil)
	for _, b := range batches {
		if len(b) == 1 {
			t.Error("singleton batch not merged")
		}
	}
	// batchSize <= 0 yields one full batch.
	_, batches = MinibatchesInto(5, 0, rng, nil, nil)
	if len(batches) != 1 || len(batches[0]) != 5 {
		t.Errorf("full batch fallback wrong: %v", batches)
	}
}

func TestGatherHelpers(t *testing.T) {
	x := [][]float64{{1}, {2}, {3}}
	y := []int{10, 20, 30}
	var gx Tensor
	GatherInto(&gx, x, []int{2, 0})
	gy := GatherLabelsInto(nil, y, []int{2, 0})
	if gx.Rows() != 2 || gx.At(0, 0) != 3 || gx.At(1, 0) != 1 || gy[0] != 30 || gy[1] != 10 {
		t.Error("gather wrong")
	}
	// Reuse shrinks in place and leaves the source rows untouched.
	GatherInto(&gx, x, []int{1})
	gy = GatherLabelsInto(gy, y, []int{1})
	if gx.Rows() != 1 || gx.At(0, 0) != 2 || len(gy) != 1 || gy[0] != 20 || x[1][0] != 2 {
		t.Error("gather reuse wrong")
	}
}

func randBatch(rng *rand.Rand, n, d int) [][]float64 {
	out := make([][]float64, n)
	for i := range out {
		row := make([]float64, d)
		for j := range row {
			row[j] = rng.NormFloat64()
		}
		out[i] = row
	}
	return out
}

func argmax(xs []float64) int {
	best := 0
	for i, v := range xs {
		if v > xs[best] {
			best = i
		}
	}
	return best
}
