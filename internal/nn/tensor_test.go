package nn

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// refDenseForward is the pre-tensor allocating Dense forward, kept verbatim
// as the golden reference for the in-place kernel.
func refDenseForward(w, b []float64, out int, x [][]float64) [][]float64 {
	y := make([][]float64, len(x))
	for i, row := range x {
		o := make([]float64, out)
		copy(o, b)
		for j, v := range row {
			if v == 0 {
				continue
			}
			wRow := w[j*out : (j+1)*out]
			for k, wv := range wRow {
				o[k] += v * wv
			}
		}
		y[i] = o
	}
	return y
}

// refDenseBackward is the allocating reference for the Dense backward. The
// input gradient uses the fixed 4-lane dot scheme (vdotGo) that defines the
// layer's bit-level contract; weight/bias accumulations are the plain
// sequential sums (bit-identical to the axpy/vadd kernels).
func refDenseBackward(w []float64, in, out int, x, gradOut [][]float64) (gi [][]float64, gw, gb []float64) {
	gw = make([]float64, in*out)
	gb = make([]float64, out)
	gi = make([][]float64, len(gradOut))
	for i, gRow := range gradOut {
		row := x[i]
		g := make([]float64, in)
		for j, v := range row {
			gwRow := gw[j*out : (j+1)*out]
			g[j] = vdotGo(gRow, w[j*out:(j+1)*out])
			for k, gv := range gRow {
				gwRow[k] += gv * v
			}
		}
		for k, gv := range gRow {
			gb[k] += gv
		}
		gi[i] = g
	}
	return gi, gw, gb
}

func randRows(rng *rand.Rand, n, d int) [][]float64 {
	x := make([][]float64, n)
	for i := range x {
		x[i] = make([]float64, d)
		for j := range x[i] {
			x[i][j] = rng.NormFloat64()
		}
	}
	// Plant exact zeros to exercise the v == 0 skip branch.
	if n > 0 && d > 0 {
		x[0][0] = 0
		x[n-1][d-1] = 0
	}
	return x
}

// TestDenseKernelGolden pins the in-place Dense kernels bit-for-bit against
// the pre-tensor reference implementation, across repeated calls on the
// same layer (scratch reuse must not leak state between batches).
func TestDenseKernelGolden(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	d := NewDense(5, 3, rng)
	w, b := d.Params()[0], d.Params()[1]
	for trial := 0; trial < 4; trial++ {
		n := 2 + trial*3
		x := randRows(rng, n, 5)
		gradOut := randRows(rng, n, 3)

		got := d.ForwardT(rowsT(x), true).ToRows()
		want := refDenseForward(w.Data, b.Data, 3, x)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: forward mismatch", trial)
		}

		ZeroGrads(d.Params())
		gotGI := d.BackwardT(rowsT(gradOut)).ToRows()
		wantGI, wantGW, wantGB := refDenseBackward(w.Data, 5, 3, x, gradOut)
		if !reflect.DeepEqual(gotGI, wantGI) {
			t.Fatalf("trial %d: input gradient mismatch", trial)
		}
		if !reflect.DeepEqual(w.Grad, wantGW) {
			t.Fatalf("trial %d: weight gradient mismatch", trial)
		}
		if !reflect.DeepEqual(b.Grad, wantGB) {
			t.Fatalf("trial %d: bias gradient mismatch", trial)
		}
	}
}

// refBatchNormForward is the pre-tensor training-mode forward: it returns
// the output, x̂, the batch std, and the updated running stats.
func refBatchNormForward(gamma, beta, runMean, runVar []float64, momentum, eps float64, x [][]float64) (out, xHat [][]float64, std []float64) {
	dim := len(gamma)
	n := len(x)
	mean := make([]float64, dim)
	for _, row := range x {
		for j, v := range row {
			mean[j] += v
		}
	}
	for j := range mean {
		mean[j] /= float64(n)
	}
	variance := make([]float64, dim)
	for _, row := range x {
		for j, v := range row {
			d := v - mean[j]
			variance[j] += d * d
		}
	}
	for j := range variance {
		variance[j] /= float64(n)
	}
	std = make([]float64, dim)
	for j := range std {
		std[j] = math.Sqrt(variance[j] + eps)
	}
	out = make([][]float64, n)
	xHat = make([][]float64, n)
	for i, row := range x {
		xh := make([]float64, dim)
		o := make([]float64, dim)
		for j, v := range row {
			xh[j] = (v - mean[j]) / std[j]
			o[j] = gamma[j]*xh[j] + beta[j]
		}
		xHat[i] = xh
		out[i] = o
	}
	for j := range mean {
		runMean[j] = (1-momentum)*runMean[j] + momentum*mean[j]
		runVar[j] = (1-momentum)*runVar[j] + momentum*variance[j]
	}
	return out, xHat, std
}

// refBatchNormBackward is the pre-tensor training-mode backward.
func refBatchNormBackward(gamma []float64, xHat [][]float64, std []float64, gradOut [][]float64) (gi [][]float64, gGamma, gBeta []float64) {
	dim := len(gamma)
	n := float64(len(gradOut))
	sumG := make([]float64, dim)
	sumGX := make([]float64, dim)
	gGamma = make([]float64, dim)
	gBeta = make([]float64, dim)
	for i, gRow := range gradOut {
		for j, g := range gRow {
			sumG[j] += g
			sumGX[j] += g * xHat[i][j]
			gBeta[j] += g
			gGamma[j] += g * xHat[i][j]
		}
	}
	gi = make([][]float64, len(gradOut))
	for i, gRow := range gradOut {
		row := make([]float64, dim)
		for j, g := range gRow {
			row[j] = gamma[j] / (n * std[j]) * (n*g - sumG[j] - xHat[i][j]*sumGX[j])
		}
		gi[i] = row
	}
	return gi, gGamma, gBeta
}

// TestBatchNormKernelGolden pins the in-place BatchNorm kernels (and the
// running-statistic updates) bit-for-bit against the pre-tensor reference.
func TestBatchNormKernelGolden(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	bn := NewBatchNorm(4)
	gamma, beta := bn.Params()[0], bn.Params()[1]
	// Non-trivial affine parameters.
	for j := range gamma.Data {
		gamma.Data[j] = 0.5 + 0.1*float64(j)
		beta.Data[j] = 0.2 * float64(j)
	}
	refRunMean := append([]float64(nil), bn.runningMean...)
	refRunVar := append([]float64(nil), bn.runningVar...)
	for trial := 0; trial < 3; trial++ {
		x := randRows(rng, 6, 4)
		gradOut := randRows(rng, 6, 4)

		got := bn.ForwardT(rowsT(x), true).ToRows()
		want, xHat, std := refBatchNormForward(gamma.Data, beta.Data, refRunMean, refRunVar, bn.Momentum, bn.Eps, x)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: forward mismatch", trial)
		}
		if !reflect.DeepEqual(bn.runningMean, refRunMean) || !reflect.DeepEqual(bn.runningVar, refRunVar) {
			t.Fatalf("trial %d: running statistics mismatch", trial)
		}

		ZeroGrads(bn.Params())
		gotGI := bn.BackwardT(rowsT(gradOut)).ToRows()
		wantGI, wantGGamma, wantGBeta := refBatchNormBackward(gamma.Data, xHat, std, gradOut)
		if !reflect.DeepEqual(gotGI, wantGI) {
			t.Fatalf("trial %d: input gradient mismatch", trial)
		}
		if !reflect.DeepEqual(gamma.Grad, wantGGamma) || !reflect.DeepEqual(beta.Grad, wantGBeta) {
			t.Fatalf("trial %d: parameter gradient mismatch", trial)
		}
	}
}

// TestPermIntoMatchesPerm pins permInto to rand.Perm: same draws, same
// permutation, for every size — the property the allocation-free epoch
// shuffle depends on.
func TestPermIntoMatchesPerm(t *testing.T) {
	var buf []int
	for _, n := range []int{0, 1, 2, 3, 7, 64, 255} {
		a := rand.New(rand.NewSource(99))
		b := rand.New(rand.NewSource(99))
		want := a.Perm(n)
		buf = permInto(b, n, buf)
		if len(want) == 0 && len(buf) == 0 {
			continue
		}
		if !reflect.DeepEqual(buf, want) {
			t.Fatalf("n=%d: permInto %v != rand.Perm %v", n, buf, want)
		}
		if a.Int63() != b.Int63() {
			t.Fatalf("n=%d: rng streams diverged after permutation", n)
		}
	}
}

// refMinibatches is the allocating batcher MinibatchesInto replaced, kept
// as its reference: one rng.Perm, batches sliced from it, and a final
// singleton appended to the previous batch.
func refMinibatches(n, batchSize int, rng *rand.Rand) [][]int {
	if batchSize <= 0 {
		batchSize = n
	}
	perm := rng.Perm(n)
	var out [][]int
	for start := 0; start < n; start += batchSize {
		end := start + batchSize
		if end > n {
			end = n
		}
		out = append(out, perm[start:end])
	}
	if len(out) > 1 && len(out[len(out)-1]) == 1 {
		last := out[len(out)-1]
		out[len(out)-2] = append(out[len(out)-2], last...)
		out = out[:len(out)-1]
	}
	return out
}

// TestMinibatchesIntoMatchesMinibatches checks the allocation-free batcher
// produces the reference's batches (including the final-singleton merge)
// and consumes identical rng draws.
func TestMinibatchesIntoMatchesMinibatches(t *testing.T) {
	var perm []int
	var batches [][]int
	cases := []struct{ n, batch int }{
		{10, 4}, {65, 32}, {64, 32}, {1, 32}, {5, 0}, {33, 32}, {2, 1},
	}
	for _, tc := range cases {
		a := rand.New(rand.NewSource(42))
		b := rand.New(rand.NewSource(42))
		want := refMinibatches(tc.n, tc.batch, a)
		perm, batches = MinibatchesInto(tc.n, tc.batch, b, perm, batches)
		if len(batches) != len(want) {
			t.Fatalf("n=%d batch=%d: %d batches, want %d", tc.n, tc.batch, len(batches), len(want))
		}
		for i := range want {
			if !reflect.DeepEqual(batches[i], want[i]) {
				t.Fatalf("n=%d batch=%d: batch %d = %v, want %v", tc.n, tc.batch, i, batches[i], want[i])
			}
		}
		if a.Int63() != b.Int63() {
			t.Fatalf("n=%d batch=%d: rng streams diverged", tc.n, tc.batch)
		}
	}
}

// trainingStepAllocBudget is the pinned per-step allocation budget for a
// steady-state tensor-path training step (forward + loss + backward +
// optimizer). The hot path is designed to allocate nothing once scratch
// buffers have grown to the batch shape; the CI bench gate runs this test
// without the race detector.
const trainingStepAllocBudget = 0.5

// TestTrainingStepSteadyStateAllocs is the allocation-regression gate for
// the nn hot path: after warm-up, a full MLP training step (Dense +
// BatchNorm + ReLU + Dropout, MSE loss, Adam) must stay within
// trainingStepAllocBudget allocations.
func TestTrainingStepSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is not meaningful under the race detector")
	}
	rng := rand.New(rand.NewSource(7))
	net := NewMLP(MLPConfig{In: 8, Hidden: []int{16, 16}, Out: 4, Dropout: 0.2, BatchNorm: true, Rng: rng})
	opt := NewAdam(1e-3, 1e-6)
	params := net.Params()
	x := NewTensor(32, 8)
	target := NewTensor(32, 4)
	for i := range x.Data() {
		x.Data()[i] = rng.NormFloat64()
	}
	for i := range target.Data() {
		target.Data()[i] = rng.NormFloat64()
	}
	var grad Tensor
	step := func() {
		out := net.ForwardT(x, true)
		mseMean(out, target, &grad)
		net.BackwardT(&grad)
		opt.Step(params)
	}
	step() // grow scratch buffers and optimizer state
	step()
	if avg := testing.AllocsPerRun(20, step); avg > trainingStepAllocBudget {
		t.Errorf("steady-state training step allocates %.2f/op, budget %v", avg, trainingStepAllocBudget)
	}
}

// BenchmarkTrainingStep reports the tensor-path training step cost; run
// with -benchmem to watch the allocation budget.
func BenchmarkTrainingStep(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	net := NewMLP(MLPConfig{In: 8, Hidden: []int{16, 16}, Out: 4, Dropout: 0.2, BatchNorm: true, Rng: rng})
	opt := NewAdam(1e-3, 1e-6)
	params := net.Params()
	x := NewTensor(32, 8)
	target := NewTensor(32, 4)
	for i := range x.Data() {
		x.Data()[i] = rng.NormFloat64()
	}
	for i := range target.Data() {
		target.Data()[i] = rng.NormFloat64()
	}
	var grad Tensor
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out := net.ForwardT(x, true)
		mseMean(out, target, &grad)
		net.BackwardT(&grad)
		opt.Step(params)
	}
}
