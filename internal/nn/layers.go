package nn

import (
	"fmt"
	"math"
	"math/rand"
)

// Layer is a differentiable network stage over row-major Tensor batches.
// ForwardT caches whatever BackwardT needs; BackwardT consumes the gradient
// w.r.t. the layer output, accumulates parameter gradients, and returns the
// gradient w.r.t. the layer input. Both write into per-layer scratch that
// is reused across calls: the returned tensor is the layer's scratch (or,
// for identity layers, the input itself) and is valid until the layer's
// next call. A layer instance processes one batch at a time (the usual
// sequential-training contract).
//
// InferT is the inference-only forward: the eval-mode arithmetic of
// ForwardT(x, false), bit for bit, writing into arena buffers without
// touching any layer-owned scratch or caches (see Infer).
type Layer interface {
	ForwardT(x *Tensor, train bool) *Tensor
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
		d.w.Data[i] = (rng.Float64()*2 - 1) * limit
	}
	return d
}

// ForwardT computes the affine map in place.
func (d *Dense) ForwardT(x *Tensor, _ bool) *Tensor {
	d.input = x
	out := d.out.Reset(x.rows, d.Out)
	if d.Out == 1 {
		// Single-output layers (the discriminator head): the per-input axpy
		// degenerates to length-1 calls, so the row product is DEFINED as
		// one wide dot over the contiguous weight column instead —
		// b + vdot(row, w), no zero-skip.
		for i := 0; i < x.rows; i++ {
			out.data[i] = d.b.Data[0] + vdot(x.Row(i), d.w.Data)
		}
		return out
	}
	for i := 0; i < x.rows; i++ {
		row := x.Row(i)
		o := out.Row(i)
		copy(o, d.b.Data)
		for j, v := range row {
			if v == 0 {
				continue
			}
			axpy1(v, d.w.Data[j*d.Out:(j+1)*d.Out], o)
		}
	}
	return out
}

// BackwardT accumulates dL/dW, dL/db and returns dL/dx in place.
func (d *Dense) BackwardT(gradOut *Tensor) *Tensor {
	gradIn := d.gradIn.Reset(gradOut.rows, d.In)
	if d.input.cols != d.In {
		// Degenerate narrow input: the uncovered tail of each gradient row
		// must read as zero, as the allocating implementation guaranteed.
		gradIn.ZeroReset(gradOut.rows, d.In)
	}
	if d.Out == 1 {
		// Single-output layers: per-input vdot/axpy calls degenerate to
		// length-1 overhead, so the row gradients are DEFINED as wide
		// kernels over the contiguous weight column — gi = g0·w (vscale),
		// gw += g0·in (axpy1, no zero-skip).
		for i := 0; i < gradOut.rows; i++ {
			g0 := gradOut.data[i]
			in := d.input.Row(i)
			// Slice to the live input width so the degenerate narrow-input
			// case keeps its zero tail, like the generic path.
			vscale(gradIn.Row(i)[:len(in)], d.w.Data[:len(in)], g0)
			axpy1(g0, in, d.w.Grad[:len(in)])
			d.b.Grad[0] += g0
		}
		return gradIn
	}
	for i := 0; i < gradOut.rows; i++ {
		gRow := gradOut.Row(i)
		in := d.input.Row(i)
		gi := gradIn.Row(i)
		for j, v := range in {
			// Input gradient: the fixed-lane dot defined by vdot — the
			// bit-level reference for this layer (see refDenseBackward).
			gi[j] = vdot(gRow, d.w.Data[j*d.Out:(j+1)*d.Out])
			// Weight gradient: gw[k] += v*g[k]. Skipping v == 0 is
			// bit-neutral — the accumulator starts at +0 and +0 + (±0) = +0,
			// so it can never be -0 and adding a zero term never changes it.
			if v != 0 {
				axpy1(v, gRow, d.w.Grad[j*d.Out:(j+1)*d.Out])
			}
		}
		vadd(d.b.Grad, gRow)
	}
	return gradIn
}

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
	actSigmoid
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

func (a *activation) ForwardT(x *Tensor, _ bool) *Tensor {
	a.input = x
	out := a.out.Reset(x.rows, x.cols)
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
		deriv: func(_, y float64) float64 { return 1 - y*y },
	}
}

// NewSigmoid returns a logistic activation layer.
func NewSigmoid() Layer {
	return &activation{
		kind:  actSigmoid,
		fn:    func(x float64) float64 { return 1 / (1 + math.Exp(-x)) },
		deriv: func(_, y float64) float64 { return y * (1 - y) },
	}
}

// Dropout zeroes each unit with probability P during training and scales
// survivors by 1/(1-P) (inverted dropout). At inference it is the identity.
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

// ForwardT applies the dropout mask in training mode; at inference it
// returns x unchanged.
func (d *Dropout) ForwardT(x *Tensor, train bool) *Tensor {
	if !train || d.P == 0 {
		d.hasMask = false
		return x
	}
	scale := 1 / (1 - d.P)
	out := d.out.Reset(x.rows, x.cols)
	mask := d.mask.Reset(x.rows, x.cols)
	d.hasMask = true
	for i, v := range x.data {
		if d.rng.Float64() >= d.P {
			mask.data[i] = scale
			out.data[i] = v * scale
		} else {
			mask.data[i] = 0
			out.data[i] = 0
		}
	}
	return out
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
func (g *GradReverse) ForwardT(x *Tensor, _ bool) *Tensor { return x }

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
