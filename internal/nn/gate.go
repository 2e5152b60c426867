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
// accumulator sums the same terms in the same order, and the inner loops
// run through axpy1, whose vector form is per-lane multiply and add with
// no fusion.
type FeatureGate struct {
	Dim  int
	Rank int

	w1, w2, b *Param // w1: Rank×Dim, w2: Dim×Rank

	// w1T (Dim×Rank) and w2T (Rank×Dim) are transposed copies of w1 and w2,
	// refreshed at the start of every ForwardT, so the forward pass can
	// accumulate u and W2·u with contiguous axpy rows instead of walking
	// the weights with a stride of Dim. They are read only inside the call
	// that refreshed them, so an optimizer step between calls never leaves
	// them stale.
	w1T, w2T []float64

	input  *Tensor // caller-owned; stable between ForwardT and BackwardT
	u      Tensor  // n×Rank
	sig    Tensor  // n×Dim, σ(z)
	out    Tensor
	gradIn Tensor
	dz, du []float64
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
		dz:   make([]float64, dim),
		du:   make([]float64, rank),
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

// forwardRow gates one row: u = W1·x, sig = σ(W2·u + b), out = x ⊙ sig.
// u[m] sums w1[m][j]·x[j] over the nonzero inputs in ascending j, and
// W2·u sums w2[k][m]·u[m] in ascending m from +0 before b[k] is added —
// the orders of the scalar reference.
func (g *FeatureGate) forwardRow(row, u, sig, out, w1T, w2T []float64) {
	if len(row) != g.Dim {
		panic(fmt.Sprintf("nn: gate over %d features given a %d-wide row", g.Dim, len(row)))
	}
	for m := range u {
		u[m] = 0
	}
	for j, v := range row {
		if v == 0 {
			continue
		}
		axpy1(v, w1T[j*g.Rank:(j+1)*g.Rank], u)
	}
	// sig first accumulates z − b = W2·u, one rank at a time.
	for k := range sig {
		sig[k] = 0
	}
	for m, um := range u {
		axpy1(um, w2T[m*g.Dim:(m+1)*g.Dim], sig)
	}
	for k, s := range sig {
		z := g.b.Data[k] + s
		sig[k] = 1 / (1 + math.Exp(-z))
		out[k] = row[k] * sig[k]
	}
}

// ForwardT applies the gate to a batch in place.
func (g *FeatureGate) ForwardT(x *Tensor, _ bool) *Tensor {
	g.input = x
	transposeInto(g.w1T, g.w1.Data, g.Rank, g.Dim)
	transposeInto(g.w2T, g.w2.Data, g.Dim, g.Rank)
	u := g.u.Reset(x.rows, g.Rank)
	sig := g.sig.Reset(x.rows, g.Dim)
	out := g.out.Reset(x.rows, g.Dim)
	for i := 0; i < x.rows; i++ {
		g.forwardRow(x.Row(i), u.Row(i), sig.Row(i), out.Row(i), g.w1T, g.w2T)
	}
	return out
}

// BackwardT accumulates the gate's parameter gradients and returns dL/dx in
// place.
func (g *FeatureGate) BackwardT(gradOut *Tensor) *Tensor {
	gradIn := g.gradIn.Reset(gradOut.rows, g.Dim)
	dz, du := g.dz, g.du
	for i := 0; i < gradOut.rows; i++ {
		gRow := gradOut.Row(i)
		x := g.input.Row(i)
		s := g.sig.Row(i)
		u := g.u.Row(i)
		// dL/dz_k = gRow[k]·x_k·s_k(1-s_k)
		for k := range dz {
			dz[k] = gRow[k] * x[k] * s[k] * (1 - s[k])
		}
		vadd(g.b.Grad, dz)
		// du = W2ᵀ·dz; dW2[k][m] += dz_k·u_m
		for m := range du {
			du[m] = 0
		}
		for k, dzk := range dz {
			if dzk == 0 {
				continue
			}
			axpy1(dzk, g.w2.Data[k*g.Rank:(k+1)*g.Rank], du)
			axpy1(dzk, u, g.w2.Grad[k*g.Rank:(k+1)*g.Rank])
		}
		// dx_j = gRow[j]·s_j + Σ_m du_m·W1[m][j]; dW1[m][j] += du_m·x_j
		gi := gradIn.Row(i)
		for j := range gi {
			gi[j] = gRow[j] * s[j]
		}
		for m, dum := range du {
			if dum == 0 {
				continue
			}
			axpy1(dum, g.w1.Data[m*g.Dim:(m+1)*g.Dim], gi)
			axpy1(dum, x, g.w1.Grad[m*g.Dim:(m+1)*g.Dim])
		}
	}
	return gradIn
}

// InferT implements Layer: ForwardT's arithmetic with the transposed
// weights and per-row scratch taken from the arena, so nothing on the layer
// is written.
func (g *FeatureGate) InferT(x *Tensor, s *InferScratch) *Tensor {
	w1T := s.grab().Reset(g.Dim, g.Rank).data
	w2T := s.grab().Reset(g.Rank, g.Dim).data
	transposeInto(w1T, g.w1.Data, g.Rank, g.Dim)
	transposeInto(w2T, g.w2.Data, g.Dim, g.Rank)
	u := s.grab().Reset(1, g.Rank).data
	sig := s.grab().Reset(1, g.Dim).data
	out := s.grab().Reset(x.rows, g.Dim)
	for i := 0; i < x.rows; i++ {
		g.forwardRow(x.Row(i), u, sig, out.Row(i), w1T, w2T)
	}
	return out
}

// Params returns the gate weights.
func (g *FeatureGate) Params() []*Param { return []*Param{g.w1, g.w2, g.b} }
