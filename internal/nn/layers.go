package nn

import (
	"fmt"
	"math"
	"math/rand"

	"netdrift/internal/par"
)

// Layer is a differentiable network stage over row-major Tensor batches.
// ForwardT caches whatever BackwardT needs; BackwardT consumes the gradient
// w.r.t. the layer output, accumulates parameter gradients, and returns the
// gradient w.r.t. the layer input. Both write into per-layer scratch that
// is reused across calls: the returned tensor is the layer's scratch (or,
// for identity layers, the input itself) and is valid until the layer's
// next call. A layer instance processes one batch at a time (the usual
// sequential-training contract). ForwardT is the training forward: batch
// normalization uses the batch's statistics and dropout draws its mask.
//
// InferT is the eval forward, the only one: running statistics, no
// dropout, writing into arena buffers without touching any layer-owned
// scratch or caches (see Infer).
type Layer interface {
	ForwardT(x *Tensor) *Tensor
	BackwardT(gradOut *Tensor) *Tensor
	InferT(x *Tensor, s *InferScratch) *Tensor
	Params() []*Param
}

// Dense is a fully-connected layer: y = x·Wᵀ + b.
type Dense struct {
	In, Out int

	w, b   *Param
	input  *Tensor // caller-owned; stable between ForwardT and BackwardT
	out    Tensor
	gradIn Tensor

	// The last keep (see ForwardKeep): the partial outputs b + Σ_{j<k}
	// x[j]·W[j] per row, the input columns [0, k) they came from, and the
	// weight and bias versions they were computed under.
	prefix, prefixX Tensor
	prefixK         int
	prefixAt        [2]uint64
	kept            bool

	// The training passes' kernels split across team when it is set (see
	// ShardedNet.SetTeam), through these records; InferT never splits.
	team *par.Team
	gemm gemmSplit
	dots vdotSplit
}

// NewDense creates a dense layer with He-uniform initialization.
func NewDense(in, out int, rng *rand.Rand) *Dense {
	if in <= 0 || out <= 0 {
		panic(fmt.Sprintf("nn: invalid dense shape %dx%d", in, out))
	}
	d := &Dense{
		In:  in,
		Out: out,
		w:   NewParam(fmt.Sprintf("dense%dx%d.w", in, out), in*out),
		b:   NewParam(fmt.Sprintf("dense%dx%d.b", in, out), out),
	}
	limit := math.Sqrt(6.0 / float64(in))
	for i := range d.w.Data {
		d.w.Data[i] = (float64(rng.Float64())*2 - 1) * limit
	}
	return d
}

// ForwardT computes the affine map in place.
func (d *Dense) ForwardT(x *Tensor) *Tensor {
	d.input = x
	return d.forward(x, d.out.Reset(x.rows, d.Out), d.team)
}

// forward writes x·Wᵀ + b into out — the one forward of the layer, shared
// by ForwardT and InferT (which passes no team), its rows split across
// team. Each output element starts at its bias and adds x[j]·W[j][k] for
// the nonzero inputs in ascending j (skipGemm's definition: the zero skip
// is part of it), one rounded multiply and one rounded add per term.
func (d *Dense) forward(x, out *Tensor, team *par.Team) *Tensor {
	if d.Out == 1 {
		// Single-output layers (the discriminator head): the row product is
		// DEFINED as one wide dot over the contiguous weight column —
		// b + vdot(row, w), no zero-skip.
		for i := 0; i < x.rows; i++ {
			out.data[i] = d.b.Data[0] + vdot(x.Row(i), d.w.Data)
		}
		return out
	}
	for i := 0; i < x.rows; i++ {
		copy(out.Row(i), d.b.Data)
	}
	d.addTerms(out, x, 0, x.cols, team)
	return out
}

// addTerms adds the terms x[j]·W[j] of the input columns lo ≤ j < hi to
// out, in ascending j (skipGemm over that block of columns), its rows
// split across team.
func (d *Dense) addTerms(out, x *Tensor, lo, hi int, team *par.Team) {
	if x.rows == 0 {
		return
	}
	skipGemmTeam(team, &d.gemm, out.data, d.Out, x.data[lo:], x.cols, 1, d.w.Data[lo*d.Out:], d.Out, x.rows, d.Out, hi-lo)
}

// forwardPrefix implements prefixed. Split at k, the forward's per-element
// term sequence is the same: the bias, then the columns j < k, then the
// columns j ≥ k, each in ascending j. A keep runs the first part, saves it,
// and runs the second; a resume starts from the saved first part.
func (d *Dense) forwardPrefix(x *Tensor, k int, resume bool) *Tensor {
	if k < 0 || k > x.cols {
		panic(fmt.Sprintf("nn: prefix of %d columns on a %d-column input", k, x.cols))
	}
	if resume {
		d.checkPrefix(x, k)
	} else {
		d.keepPrefix(x, k)
	}
	d.input = x
	out := d.out.Reset(x.rows, d.Out)
	if d.Out == 1 {
		// b + vdot(row, w) does not split (vdot's lanes span the whole
		// row): both modes run the whole forward.
		return d.forward(x, out, d.team)
	}
	if resume {
		copy(out.data, d.prefix.data)
	} else {
		for i := 0; i < x.rows; i++ {
			copy(out.Row(i), d.b.Data)
		}
		d.addTerms(out, x, 0, k, d.team)
		copy(d.prefix.Reset(x.rows, d.Out).data, out.data)
	}
	d.addTerms(out, x, k, x.cols, d.team)
	return out
}

// keepPrefix records what a later resume must match: the input columns
// [0, k) and the weight versions.
func (d *Dense) keepPrefix(x *Tensor, k int) {
	px := d.prefixX.Reset(x.rows, k)
	for i := 0; i < x.rows; i++ {
		copy(px.Row(i), x.Row(i)[:k])
	}
	d.prefixK = k
	d.prefixAt = [2]uint64{d.w.version(), d.b.version()}
	d.kept = true
}

// checkPrefix panics unless the kept prefix is still valid for x: the same
// k and rows, bit-identical input columns [0, k), and no update to the
// weights since the keep.
func (d *Dense) checkPrefix(x *Tensor, k int) {
	switch {
	case !d.kept:
		panic("nn: prefix resume without a keep")
	case k != d.prefixK:
		panic(fmt.Sprintf("nn: prefix resume at %d columns, kept %d", k, d.prefixK))
	case x.rows != d.prefixX.rows:
		panic(fmt.Sprintf("nn: prefix resume on %d rows, kept %d", x.rows, d.prefixX.rows))
	case d.prefixAt != [2]uint64{d.w.version(), d.b.version()}:
		panic("nn: prefix resume after a weight update")
	}
	for i := 0; i < x.rows; i++ {
		xr := x.Row(i)[:k]
		for j, v := range d.prefixX.Row(i) {
			if math.Float64bits(xr[j]) != math.Float64bits(v) {
				panic(fmt.Sprintf("nn: prefix resume on a different input (row %d, column %d)", i, j))
			}
		}
	}
}

// BackwardT accumulates dL/dW, dL/db and returns dL/dx in place.
func (d *Dense) BackwardT(gradOut *Tensor) *Tensor {
	return d.backwardWindow(gradOut, 0, fullWindow, false)
}

// backwardWindow is BackwardT computing the input gradient only over the
// columns [lo, hi) (see BackwardWindow); the weight and bias gradients are
// whole, or not computed at all when frozen (see BackwardFrozen).
func (d *Dense) backwardWindow(gradOut *Tensor, lo, hi int, frozen bool) *Tensor {
	gradIn := d.gradIn.Reset(gradOut.rows, d.In)
	in := d.input
	if in.cols != d.In {
		// Degenerate narrow input: the uncovered tail of each gradient row
		// must read as zero, as the allocating implementation guaranteed.
		gradIn.ZeroReset(gradOut.rows, d.In)
	}
	hi = min(hi, in.cols)
	lo = min(lo, hi)
	if d.Out == 1 {
		// Single-output layers: the row gradients are DEFINED as wide
		// kernels over the contiguous weight column — gi = g0·w (vscale),
		// gw += g0·in (axpy1, no zero-skip).
		for i := 0; i < gradOut.rows; i++ {
			g0 := gradOut.data[i]
			row := in.Row(i)
			// Slice to the live input width so the degenerate narrow-input
			// case keeps its zero tail, like the generic path.
			vscale(gradIn.Row(i)[lo:hi], d.w.Data[lo:hi], g0)
			if !frozen {
				axpy1(g0, row, d.w.Grad[:len(row)])
				d.b.Grad[0] += g0
			}
		}
		return gradIn
	}
	if !frozen {
		// Weight gradient: gw[j][k] += x[i][j]·g[i][k] over the batch rows
		// i in ascending order, skipping x[i][j] == 0 — skipGemm over the
		// transposed input. The skip is part of the definition (0·NaN and
		// 0·Inf are NaN). Split across the team by weight rows.
		skipGemmTeam(d.team, &d.gemm, d.w.Grad, d.Out, in.data, 1, in.cols, gradOut.data, d.Out, in.cols, d.Out, gradOut.rows)
		for i := 0; i < gradOut.rows; i++ {
			vadd(d.b.Grad, gradOut.Row(i))
		}
	}
	// Input gradient: gi[i][j] = vdot(g[i], W[j]), the fixed 16-lane dot —
	// the bit-level reference for this layer (see refDenseBackward) — for
	// the window's columns j only, split across the team by batch rows.
	if lo < hi {
		vdotRowsTeam(d.team, &d.dots, gradIn.data[lo:], d.In, gradOut.data, d.w.Data[lo*d.Out:], gradOut.rows, hi-lo, d.Out)
	}
	return gradIn
}

// gradOutWindow implements windowed: the input gradient of every column
// reads every output-gradient column.
func (d *Dense) gradOutWindow(int, int) (int, int) { return 0, fullWindow }

// Params returns the layer's weight and bias.
func (d *Dense) Params() []*Param { return []*Param{d.w, d.b} }

// actKind tags the built-in activations so the hot paths can dispatch to
// the vector kernels (and ShardedNet can clone an activation without
// inspecting its closures).
type actKind uint8

const (
	actGeneric actKind = iota // fn/deriv closures, elementwise scalar loop
	actReLU
	actLeakyReLU
	actTanh
)

// activation is shared machinery for elementwise activations.
type activation struct {
	kind  actKind
	alpha float64                    // leaky-ReLU negative slope
	fn    func(float64) float64      // generic forward (non-kernel kinds)
	deriv func(x, y float64) float64 // derivative given input x and output y

	input  *Tensor
	out    Tensor
	gradIn Tensor
}

// clone returns a fresh activation of the same kind with empty scratch,
// sharing nothing with the receiver (activations are stateless between
// batches apart from their caches).
func (a *activation) clone() *activation {
	return &activation{kind: a.kind, alpha: a.alpha, fn: a.fn, deriv: a.deriv}
}

func (a *activation) ForwardT(x *Tensor) *Tensor {
	a.input = x
	return a.forward(x, a.out.Reset(x.rows, x.cols))
}

// forward writes the activation of x into out, the one forward of the
// layer, shared by ForwardT and InferT.
func (a *activation) forward(x, out *Tensor) *Tensor {
	switch a.kind {
	case actReLU:
		// Dedicated kernel: LeakyReLU with alpha=0 would turn negatives
		// into -0 (0*x), not the +0 the scalar definition produces.
		vreluFwd(out.data, x.data)
	case actLeakyReLU:
		vlreluFwd(out.data, x.data, a.alpha)
	default:
		for i, v := range x.data {
			out.data[i] = a.fn(v)
		}
	}
	return out
}

func (a *activation) BackwardT(gradOut *Tensor) *Tensor {
	gradIn := a.gradIn.Reset(gradOut.rows, gradOut.cols)
	switch a.kind {
	case actReLU:
		// g*(x<0 ? 0 : 1): multiplying by literal 0 matches the historical
		// g*deriv scalar path bit for bit (keeps g's sign on the zero).
		vlreluBwd(gradIn.data, gradOut.data, a.input.data, 0)
	case actLeakyReLU:
		vlreluBwd(gradIn.data, gradOut.data, a.input.data, a.alpha)
	default:
		for i, g := range gradOut.data {
			gradIn.data[i] = g * a.deriv(a.input.data[i], a.out.data[i])
		}
	}
	return gradIn
}

func (a *activation) Params() []*Param { return nil }

// NewReLU returns a rectified linear activation layer.
func NewReLU() Layer {
	return &activation{kind: actReLU}
}

// NewLeakyReLU returns a leaky ReLU with the given negative slope.
func NewLeakyReLU(alpha float64) Layer {
	return &activation{kind: actLeakyReLU, alpha: alpha}
}

// NewTanh returns a tanh activation layer.
func NewTanh() Layer {
	return &activation{
		kind:  actTanh,
		fn:    math.Tanh,
		deriv: func(_, y float64) float64 { return 1 - float64(y*y) },
	}
}

// Dropout zeroes each unit with probability P during training and scales
// survivors by 1/(1-P) (inverted dropout). Its InferT is the identity.
type Dropout struct {
	P   float64
	rng *rand.Rand

	mask    Tensor
	hasMask bool
	out     Tensor
	gradIn  Tensor
}

// NewDropout creates a dropout layer with drop probability p.
func NewDropout(p float64, rng *rand.Rand) *Dropout {
	if p < 0 || p >= 1 {
		panic(fmt.Sprintf("nn: dropout probability %v out of [0,1)", p))
	}
	return &Dropout{P: p, rng: rng}
}

// ForwardT draws a fresh dropout mask and applies it. A unit survives
// exactly when rng.Float64() >= P would hold, drawing the same Int63
// values: each draw is compared with keepThreshold(P) as an integer, and
// the survivor's mask and output are selected with a bit mask, not a
// branch, so the loop runs at the rng's pace.
func (d *Dropout) ForwardT(x *Tensor) *Tensor {
	if d.P == 0 {
		d.hasMask = false
		return x
	}
	scale := 1 / (1 - d.P)
	scaleBits := math.Float64bits(scale)
	t := keepThreshold(d.P)
	out := d.out.Reset(x.rows, x.cols)
	mask := d.mask.Reset(x.rows, x.cols)
	d.hasMask = true
	for i, v := range x.data {
		r := d.rng.Int63()
		for r >= float64Redraw {
			r = d.rng.Int63()
		}
		// All ones when r >= t, else zero (t-1-r is then >= 0); a zero
		// bit pattern is +0, what a dropped unit holds.
		keep := uint64((t - 1 - r) >> 63)
		mask.data[i] = math.Float64frombits(scaleBits & keep)
		out.data[i] = math.Float64frombits(math.Float64bits(v*scale) & keep)
	}
	return out
}

// float64Redraw is the smallest Int63 draw that rand.Float64 discards:
// float64(r) rounds to 2⁶³ from r = 2⁶³−2⁹ up (the tie rounds to even),
// so r/2⁶³ would be 1, and Float64 draws again.
const float64Redraw = 1<<63 - 1<<9

// keepThreshold returns the smallest Int63 draw r for which Float64's
// value float64(r)/2⁶³ is at least p. That value never decreases as r
// grows, so for every draw Float64 keeps, r >= keepThreshold(p) holds
// exactly when Float64() >= p. The search evaluates Float64's own
// expression, so the two agree bit for bit at every boundary.
func keepThreshold(p float64) int64 {
	lo, hi := int64(0), int64(math.MaxInt64)
	for lo < hi {
		mid := lo + (hi-lo)/2
		if float64(mid)/(1<<63) >= p {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// BackwardT routes gradients through the surviving units.
func (d *Dropout) BackwardT(gradOut *Tensor) *Tensor {
	if !d.hasMask {
		return gradOut
	}
	gradIn := d.gradIn.Reset(gradOut.rows, gradOut.cols)
	for i, g := range gradOut.data {
		gradIn.data[i] = g * d.mask.data[i]
	}
	return gradIn
}

// Params returns nil; dropout has no parameters.
func (d *Dropout) Params() []*Param { return nil }

// GradReverse is the identity in the forward pass and multiplies gradients
// by -Lambda in the backward pass (Ganin & Lempitsky's gradient reversal,
// used by the DANN baseline).
type GradReverse struct {
	Lambda float64

	gradIn Tensor
}

// ForwardT is the identity.
func (g *GradReverse) ForwardT(x *Tensor) *Tensor { return x }

// BackwardT negates and scales the gradient.
func (g *GradReverse) BackwardT(gradOut *Tensor) *Tensor {
	gradIn := g.gradIn.Reset(gradOut.rows, gradOut.cols)
	for i, v := range gradOut.data {
		gradIn.data[i] = -g.Lambda * v
	}
	return gradIn
}

// Params returns nil; the layer has no parameters.
func (g *GradReverse) Params() []*Param { return nil }
