package nn

import (
	"fmt"
	"math"
	"math/rand"
)

// FeatureGate is an input-conditioned elementwise gate with a low-rank
// gating map:
//
//	u = W1·x,  z = W2·u + b,  y = x ⊙ σ(z)
//
// It lets a network softly select informative telemetry columns per
// sample — the mechanism that makes TNet a *tabular* architecture rather
// than a plain MLP (attention-like feature selection, cf. TabNet/TabularNet
// designs). The rank-R factorization keeps the gate O(d·R) instead of
// O(d²), which matters on 442-feature telemetry.
//
// The flat path keeps the arithmetic of the original per-row scalar loops
// bit for bit (pinned by TestFeatureGateMatchesReference): every
// accumulator sums the same terms in the same order. Five of its six
// products are skipGemm calls over the whole batch, in the two
// orientations Dense uses (u = x·W1ᵀ and du = dz·W2 like its forward,
// dW1 += duᵀ·x and dW2 += dzᵀ·u like its weight gradient, and the input
// gradient's du·W1 like its forward again); W2·u, which has no zero skip,
// is one axpy1 per rank and row. Neither kernel fuses a multiply into an
// add.
type FeatureGate struct {
	Dim  int
	Rank int

	w1, w2, b *Param // w1: Rank×Dim, w2: Dim×Rank

	// w1T (Dim×Rank) and w2T (Rank×Dim) are transposed copies of w1 and w2,
	// refreshed at the start of every ForwardT, so the forward pass can
	// take u from skipGemm and W2·u from contiguous axpy rows instead of
	// walking the weights with a stride of Dim. They are read only inside
	// the call that refreshed them, so an optimizer step between calls
	// never leaves them stale.
	w1T, w2T []float64

	input  *Tensor // caller-owned; stable between ForwardT and BackwardT
	u      Tensor  // n×Rank
	sig    Tensor  // n×Dim, σ(z)
	out    Tensor
	gradIn Tensor
	dz     Tensor // n×Dim
	du     Tensor // n×Rank
}

// NewFeatureGate creates a gate over dim features with a default rank of
// min(32, dim).
func NewFeatureGate(dim int, rng *rand.Rand) *FeatureGate {
	if dim <= 0 {
		panic(fmt.Sprintf("nn: invalid gate dim %d", dim))
	}
	rank := 32
	if rank > dim {
		rank = dim
	}
	g := &FeatureGate{
		Dim:  dim,
		Rank: rank,
		w1:   NewParam(fmt.Sprintf("gate%d.w1", dim), rank*dim),
		w2:   NewParam(fmt.Sprintf("gate%d.w2", dim), dim*rank),
		b:    NewParam(fmt.Sprintf("gate%d.b", dim), dim),
		w1T:  make([]float64, dim*rank),
		w2T:  make([]float64, rank*dim),
	}
	lim1 := math.Sqrt(6.0 / float64(dim))
	for i := range g.w1.Data {
		g.w1.Data[i] = (float64(rng.Float64())*2 - 1) * lim1
	}
	lim2 := math.Sqrt(6.0/float64(rank)) * 0.5
	for i := range g.w2.Data {
		g.w2.Data[i] = (float64(rng.Float64())*2 - 1) * lim2
	}
	// Bias the gates open initially so early training sees all features.
	for i := range g.b.Data {
		g.b.Data[i] = 1
	}
	return g
}

// transposeInto writes the transpose of the rows×cols matrix src into dst.
func transposeInto(dst, src []float64, rows, cols int) {
	for r := 0; r < rows; r++ {
		for c, v := range src[r*cols : (r+1)*cols] {
			dst[c*rows+r] = v
		}
	}
}

// forward gates the batch x: u = x·W1ᵀ, sig = σ(W2·u + b), out = x ⊙ sig.
// u[m] sums w1[m][j]·x[j] over the nonzero inputs in ascending j from +0
// (skipGemm's definition), and W2·u sums w2[k][m]·u[m] in ascending m from
// +0 before b[k] is added — the orders of the scalar reference.
func (g *FeatureGate) forward(x, u, sig, out *Tensor, w1T, w2T []float64) {
	if x.cols != g.Dim {
		panic(fmt.Sprintf("nn: gate over %d features given a %d-wide row", g.Dim, x.cols))
	}
	u.ZeroReset(x.rows, g.Rank)
	sig.Reset(x.rows, g.Dim)
	out.Reset(x.rows, g.Dim)
	if x.rows == 0 {
		return
	}
	skipGemm(u.data, g.Rank, x.data, g.Dim, 1, w1T, g.Rank, x.rows, g.Rank, g.Dim)
	for i := 0; i < x.rows; i++ {
		row, s, o := x.Row(i), sig.Row(i), out.Row(i)
		// s first accumulates z − b = W2·u, one rank at a time.
		for k := range s {
			s[k] = 0
		}
		for m, um := range u.Row(i) {
			axpy1(um, w2T[m*g.Dim:(m+1)*g.Dim], s)
		}
		for k, sk := range s {
			z := g.b.Data[k] + sk
			s[k] = 1 / (1 + math.Exp(-z))
			o[k] = row[k] * s[k]
		}
	}
}

// ForwardT applies the gate to a batch in place.
func (g *FeatureGate) ForwardT(x *Tensor) *Tensor {
	g.input = x
	transposeInto(g.w1T, g.w1.Data, g.Rank, g.Dim)
	transposeInto(g.w2T, g.w2.Data, g.Dim, g.Rank)
	g.forward(x, &g.u, &g.sig, &g.out, g.w1T, g.w2T)
	return &g.out
}

// BackwardT accumulates the gate's parameter gradients and returns dL/dx in
// place.
func (g *FeatureGate) BackwardT(gradOut *Tensor) *Tensor {
	return g.backwardWindow(gradOut, 0, fullWindow, false)
}

// backwardWindow is BackwardT computing the input gradient only over the
// columns [lo, hi) (see BackwardWindow). Every input-gradient element is
// its own sum, g⊙s plus its du·W1 terms, that no other output reads, so
// the window skips whole elements. The parameter gradients are always
// whole: the gate cannot run frozen, and panics when asked to.
func (g *FeatureGate) backwardWindow(gradOut *Tensor, lo, hi int, frozen bool) *Tensor {
	if frozen {
		panic(fmt.Sprintf("nn: %T cannot run a frozen backward", g))
	}
	n, x := gradOut.rows, g.input
	// dL/dz_k = gRow[k]·x_k·s_k(1-s_k)
	dz := g.dz.Reset(n, g.Dim)
	for i := 0; i < n; i++ {
		gRow, xr, s, d := gradOut.Row(i), x.Row(i), g.sig.Row(i), dz.Row(i)
		for k := range d {
			d[k] = gRow[k] * xr[k] * s[k] * (1 - s[k])
		}
		vadd(g.b.Grad, d)
	}
	du := g.du.ZeroReset(n, g.Rank)
	gradIn := g.gradIn.Reset(n, g.Dim)
	if n == 0 {
		return gradIn
	}
	// du = dz·W2 and dW2 += dzᵀ·u, skipping dz = 0; dW1 += duᵀ·x, skipping
	// du = 0. Each gradient sums its batch rows in ascending order.
	skipGemm(du.data, g.Rank, dz.data, g.Dim, 1, g.w2.Data, g.Rank, n, g.Rank, g.Dim)
	skipGemm(g.w2.Grad, g.Rank, dz.data, 1, g.Dim, g.u.data, g.Rank, g.Dim, g.Rank, n)
	skipGemm(g.w1.Grad, g.Dim, du.data, 1, g.Rank, x.data, g.Dim, g.Rank, g.Dim, n)
	// dx_j = gRow[j]·s_j + Σ_m du_m·W1[m][j] over the window's columns,
	// skipping du = 0.
	hi = min(hi, g.Dim)
	lo = min(lo, hi)
	if lo == hi {
		return gradIn
	}
	for i := 0; i < n; i++ {
		gRow, s, gi := gradOut.Row(i), g.sig.Row(i), gradIn.Row(i)
		for j := lo; j < hi; j++ {
			gi[j] = gRow[j] * s[j]
		}
	}
	skipGemm(gradIn.data[lo:], g.Dim, du.data, g.Rank, 1, g.w1.Data[lo:], g.Dim, n, hi-lo, g.Rank)
	return gradIn
}

// gradOutWindow implements windowed: dz, which every parameter gradient
// reads, takes every output-gradient column.
func (g *FeatureGate) gradOutWindow(int, int) (int, int) { return 0, fullWindow }

// InferT implements Layer: ForwardT's arithmetic with the transposed
// weights and the batch scratch taken from the arena, so nothing on the
// layer is written.
func (g *FeatureGate) InferT(x *Tensor, s *InferScratch) *Tensor {
	w1T := s.grab().Reset(g.Dim, g.Rank).data
	w2T := s.grab().Reset(g.Rank, g.Dim).data
	transposeInto(w1T, g.w1.Data, g.Rank, g.Dim)
	transposeInto(w2T, g.w2.Data, g.Dim, g.Rank)
	u, sig, out := s.grab(), s.grab(), s.grab()
	g.forward(x, u, sig, out, w1T, w2T)
	return out
}

// Params returns the gate weights.
func (g *FeatureGate) Params() []*Param { return []*Param{g.w1, g.w2, g.b} }
