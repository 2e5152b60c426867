package nn

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// refDenseForward is the pre-tensor allocating Dense forward, kept as the
// golden reference for the in-place kernels: each output starts at its
// bias and adds v·w for the nonzero inputs in ascending order; a
// single-output layer is b + vdot(row, w) with no zero skip.
func refDenseForward(w, b []float64, out int, x [][]float64) [][]float64 {
	y := make([][]float64, len(x))
	for i, row := range x {
		o := make([]float64, out)
		if out == 1 {
			o[0] = b[0] + vdotGo(row, w)
			y[i] = o
			continue
		}
		copy(o, b)
		for j, v := range row {
			if v == 0 {
				continue
			}
			wRow := w[j*out : (j+1)*out]
			for k, wv := range wRow {
				o[k] += float64(v * wv)
			}
		}
		y[i] = o
	}
	return y
}

// refDenseBackward is the allocating reference for the Dense backward. The
// input gradient is the fixed 16-lane dot (vdotGo) that defines the layer's
// bit-level contract. The weight gradient sums x·g over the batch rows in
// order and skips x == 0 exactly like the layer: the skip is part of the
// definition, since 0·NaN and 0·Inf are NaN, not zero. A single-output
// layer is defined without the skip: gi = g0·w and gw += g0·x. The bias
// gradient is the plain sequential sum.
func refDenseBackward(w []float64, in, out int, x, gradOut [][]float64) (gi [][]float64, gw, gb []float64) {
	gw = make([]float64, in*out)
	gb = make([]float64, out)
	gi = make([][]float64, len(gradOut))
	for i, gRow := range gradOut {
		row := x[i]
		g := make([]float64, in)
		for j, v := range row {
			gwRow := gw[j*out : (j+1)*out]
			if out == 1 {
				g[j] = gRow[0] * w[j]
				gwRow[0] += float64(gRow[0] * v)
				continue
			}
			g[j] = vdotGo(gRow, w[j*out:(j+1)*out])
			if v == 0 {
				continue
			}
			for k, gv := range gRow {
				gwRow[k] += float64(v * gv)
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

// specialRows is randRows with the values the kernels must carry exactly:
// about a third of the entries ±0 (so 4-row blocks mix zero and nonzero
// inputs), and a few NaN and ±Inf.
func specialRows(rng *rand.Rand, n, d int) [][]float64 {
	x := make([][]float64, n)
	for i := range x {
		x[i] = make([]float64, d)
		for j := range x[i] {
			switch r := rng.Intn(100); {
			case r < 17:
				x[i][j] = 0
			case r < 34:
				x[i][j] = math.Copysign(0, -1)
			case r < 35:
				x[i][j] = math.NaN()
			case r < 36:
				x[i][j] = math.Inf(1)
			case r < 37:
				x[i][j] = math.Inf(-1)
			default:
				x[i][j] = rng.NormFloat64()
			}
		}
	}
	return x
}

// sameFloats reports whether got and want hold the same float64s bit for
// bit, except that any NaN matches any NaN: IEEE leaves the payload of a
// NaN result to the implementation (x86 returns an operand's, chosen by
// operand order), so no kernel pins it. Signed zeros and infinities must
// match exactly.
func sameFloats(got, want []float64) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) && !(math.IsNaN(got[i]) && math.IsNaN(want[i])) {
			return false
		}
	}
	return true
}

func sameRows(got, want [][]float64) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if !sameFloats(got[i], want[i]) {
			return false
		}
	}
	return true
}

// TestDenseKernelGolden pins the Dense kernels bit for bit against the
// pre-tensor reference over the tile geometry: output widths covering the
// single-output definition and every column stripe and tail (1, 3, 7, 8,
// 9, 64, 71, 256), input widths and batch sizes across the 3- and 6-row
// blocks of the input gradient and the 256-step runs of skipGemm, inputs
// and gradients with ±0, NaN and ±Inf, a -0 bias and an infinite weight
// (which the zero skip must keep out of the sums). ForwardT, InferT and the reference must agree on
// the forward; BackwardT and the reference on the input, weight and bias
// gradients; each layer runs two batches so scratch reuse cannot leak
// state. Every kernel set runs: the AVX-512 and AVX sets where the host
// has them, and the Go twins.
func TestDenseKernelGolden(t *testing.T) {
	forEachWidth(t, true, func(vec string) {
		rng := rand.New(rand.NewSource(11))
		for _, out := range []int{1, 3, 7, 8, 9, 64, 71, 256} {
			for _, in := range []int{1, 5, 64, 65, 257} {
				for _, rows := range []int{1, 2, 3, 4, 5, 6, 7, 13, 64, 65, 257} {
					if in*rows*out > 1<<22 {
						continue // the long runs are covered at narrower shapes
					}
					d := NewDense(in, out, rng)
					w, b := d.Params()[0], d.Params()[1]
					b.Data[0] = math.Copysign(0, -1)
					w.Data[len(w.Data)/2] = math.Inf(1)
					var scratch InferScratch
					for trial := 0; trial < 2; trial++ {
						name := fmt.Sprintf("%s out=%d in=%d rows=%d trial=%d", vec, out, in, rows, trial)
						x := specialRows(rng, rows, in)
						gradOut := specialRows(rng, rows, out)

						got := d.ForwardT(rowsT(x)).ToRows()
						want := refDenseForward(w.Data, b.Data, out, x)
						if !sameRows(got, want) {
							t.Fatalf("%s: forward mismatch", name)
						}
						if inf := Infer(d, rowsT(x), &scratch).ToRows(); !sameRows(inf, want) {
							t.Fatalf("%s: InferT differs from ForwardT", name)
						}

						ZeroGrads(d.Params())
						gotGI := d.BackwardT(rowsT(gradOut)).ToRows()
						wantGI, wantGW, wantGB := refDenseBackward(w.Data, in, out, x, gradOut)
						if !sameRows(gotGI, wantGI) {
							t.Fatalf("%s: input gradient mismatch", name)
						}
						if !sameFloats(w.Grad, wantGW) {
							t.Fatalf("%s: weight gradient mismatch", name)
						}
						if !sameFloats(b.Grad, wantGB) {
							t.Fatalf("%s: bias gradient mismatch", name)
						}
					}
				}
			}
		}
	})
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

		got := bn.ForwardT(rowsT(x)).ToRows()
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
		out := net.ForwardT(x)
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
		out := net.ForwardT(x)
		mseMean(out, target, &grad)
		net.BackwardT(&grad)
		opt.Step(params)
	}
}
