package nn

import (
	"fmt"
	"math"
)

// BatchNorm normalizes each feature over the batch during training and uses
// running statistics at inference. Gamma/beta are learnable. The paper's
// CTGAN-style generator uses batch normalization in its hidden layers
// (§V-C3).
type BatchNorm struct {
	Dim      int
	Momentum float64 // running-stat update rate (default 0.1)
	Eps      float64

	gamma, beta             *Param
	runningMean, runningVar []float64

	// deferStats suppresses the running-stat update in training forwards.
	// Shard replicas run with it set (ghost batch norm): each shard
	// normalizes with its own batch statistics, and the trainer folds the
	// pending statistics into the canonical layer afterwards, in shard
	// order, via FoldStatsInto — so running stats are identical at every
	// worker count.
	deferStats   bool
	statsPending bool

	// forward caches and scratch (reused across batches)
	trainPass  bool // last forward used batch statistics
	xHat       Tensor
	mean, vari []float64
	std        []float64
	batchLen   int
	out        Tensor
	gradIn     Tensor
	sumG       []float64
	sumGX      []float64
	coef       []float64
}

// NewBatchNorm creates a batch-normalization layer over dim features.
func NewBatchNorm(dim int) *BatchNorm {
	if dim <= 0 {
		panic(fmt.Sprintf("nn: invalid batchnorm dim %d", dim))
	}
	bn := &BatchNorm{
		Dim:         dim,
		Momentum:    0.1,
		Eps:         1e-5,
		gamma:       NewParam(fmt.Sprintf("bn%d.gamma", dim), dim),
		beta:        NewParam(fmt.Sprintf("bn%d.beta", dim), dim),
		runningMean: make([]float64, dim),
		runningVar:  make([]float64, dim),
		mean:        make([]float64, dim),
		vari:        make([]float64, dim),
		std:         make([]float64, dim),
		sumG:        make([]float64, dim),
		sumGX:       make([]float64, dim),
		coef:        make([]float64, dim),
	}
	for i := range bn.gamma.Data {
		bn.gamma.Data[i] = 1
		bn.runningVar[i] = 1
	}
	return bn
}

// ForwardT normalizes the batch in place with the batch's statistics. A
// one-row batch, which has none, takes the running statistics instead,
// and BackwardT treats them as constants.
func (bn *BatchNorm) ForwardT(x *Tensor) *Tensor {
	n := x.rows
	out := bn.out.Reset(n, bn.Dim)
	if n == 1 {
		bn.trainPass = false
		return bn.normalizeRunning(x, out, bn.std)
	}

	mean := bn.mean
	for j := range mean {
		mean[j] = 0
	}
	for i := 0; i < n; i++ {
		vadd(mean, x.Row(i))
	}
	vdivs(mean, float64(n))
	variance := bn.vari
	for j := range variance {
		variance[j] = 0
	}
	for i := 0; i < n; i++ {
		vsqDiffAdd(variance, x.Row(i), mean)
	}
	vdivs(variance, float64(n))

	for j := range bn.std {
		bn.std[j] = math.Sqrt(variance[j] + bn.Eps)
	}
	xHat := bn.xHat.Reset(n, bn.Dim)
	bn.trainPass = true
	bn.batchLen = n
	for i := 0; i < n; i++ {
		xh := xHat.Row(i)
		vbnNorm(xh, x.Row(i), mean, bn.std)
		vbnAffine(out.Row(i), xh, bn.gamma.Data, bn.beta.Data)
	}
	if bn.deferStats {
		bn.statsPending = true
	} else {
		bn.applyStats(mean, variance)
	}
	return out
}

// normalizeRunning writes gamma·(x - running mean)/std + beta into out,
// after writing std = sqrt(running variance + Eps) per column: the one
// running-statistics normalization, behind InferT and a one-row ForwardT.
func (bn *BatchNorm) normalizeRunning(x, out *Tensor, std []float64) *Tensor {
	for j := range std {
		std[j] = math.Sqrt(bn.runningVar[j] + bn.Eps)
	}
	for i := 0; i < x.rows; i++ {
		o := out.Row(i)
		for j, v := range x.Row(i) {
			xh := (v - bn.runningMean[j]) / std[j]
			o[j] = float64(bn.gamma.Data[j]*xh) + bn.beta.Data[j]
		}
	}
	return out
}

// applyStats performs the exponential running-stat update from one batch's
// mean/variance.
func (bn *BatchNorm) applyStats(mean, variance []float64) {
	for j := range mean {
		bn.runningMean[j] = float64((1-bn.Momentum)*bn.runningMean[j]) + float64(bn.Momentum*mean[j])
		bn.runningVar[j] = float64((1-bn.Momentum)*bn.runningVar[j]) + float64(bn.Momentum*variance[j])
	}
}

// FoldStatsInto applies the receiver's pending batch statistics (stashed by
// a deferStats training forward) to dst's running statistics and clears the
// pending flag. The trainer calls this once per shard in shard-index order
// after every parallel section, making the canonical running stats a pure
// function of the shard shape. No-op when nothing is pending.
func (bn *BatchNorm) FoldStatsInto(dst *BatchNorm) {
	if !bn.statsPending {
		return
	}
	bn.statsPending = false
	dst.applyStats(bn.mean, bn.vari)
}

// BackwardT implements the standard batch-norm gradient in place.
func (bn *BatchNorm) BackwardT(gradOut *Tensor) *Tensor {
	gradIn := bn.gradIn.Reset(gradOut.rows, bn.Dim)
	if !bn.trainPass {
		// Inference-mode backward (running stats treated as constants).
		for i := 0; i < gradOut.rows; i++ {
			gRow := gradOut.Row(i)
			gi := gradIn.Row(i)
			for j, g := range gRow {
				gi[j] = g * bn.gamma.Data[j] / math.Sqrt(bn.runningVar[j]+bn.Eps)
			}
		}
		return gradIn
	}
	n := float64(bn.batchLen)
	sumG := bn.sumG   // Σ dL/dy
	sumGX := bn.sumGX // Σ dL/dy · x̂
	for j := range sumG {
		sumG[j] = 0
		sumGX[j] = 0
	}
	for i := 0; i < gradOut.rows; i++ {
		gRow := gradOut.Row(i)
		xh := bn.xHat.Row(i)
		vadd(sumG, gRow)
		vmulAdd(sumGX, gRow, xh)
		vadd(bn.beta.Grad, gRow)
		vmulAdd(bn.gamma.Grad, gRow, xh)
	}
	// gamma/(n*std) hoisted once per batch: the historical per-row
	// expression parsed as (gamma/(n*std)) * (...), so the hoist reuses the
	// exact same operations and bits.
	for j := range bn.coef {
		bn.coef[j] = bn.gamma.Data[j] / (n * bn.std[j])
	}
	for i := 0; i < gradOut.rows; i++ {
		vbnBack(gradIn.Row(i), gradOut.Row(i), bn.xHat.Row(i),
			bn.coef, sumG, sumGX, n)
	}
	return gradIn
}

// Params returns gamma and beta.
func (bn *BatchNorm) Params() []*Param { return []*Param{bn.gamma, bn.beta} }
