package nn

import "math"

// This file is the serving hot path: an inference-only forward pass that
// runs over a caller-owned scratch arena instead of the per-layer scratch
// used by ForwardT. The training path stores activations and gradients on
// the layers themselves, which makes a network single-threaded; Infer
// keeps the network strictly read-only (weights and batch-norm running
// statistics are only read, never written), so any number of goroutines
// can run inference through one shared network as long as each owns its
// own InferScratch — and none runs ForwardT/BackwardT concurrently.
//
// The arithmetic is bit-identical to ForwardT in eval mode (train=false):
// each InferT below mirrors its layer's ForwardT eval branch loop for
// loop, pinned by the golden tests in infer_test.go.

// InferScratch is a caller-owned arena of reusable output tensors for the
// inference-only forward path. Each Infer call resets the arena and hands
// one buffer to every layer that needs an output; buffers grow on first
// use and are reused afterwards, so a steady-state batch forward of a
// fixed shape performs zero allocations. An arena serves one Infer call
// at a time; concurrent inference needs one arena per goroutine.
//
// The returned tensor of Infer is arena-owned: it is valid until the
// arena's next Infer call and must be copied out to be retained.
type InferScratch struct {
	bufs []*Tensor
	next int
}

// grab returns the next reusable tensor, growing the arena on first use.
func (s *InferScratch) grab() *Tensor {
	if s.next == len(s.bufs) {
		s.bufs = append(s.bufs, &Tensor{})
	}
	t := s.bufs[s.next]
	s.next++
	return t
}

// Inferencer is the inference-only counterpart of TensorLayer: InferT runs
// the layer's eval-mode forward arithmetic writing into arena buffers,
// without touching any layer-owned scratch or caches. Every built-in
// layer implements it.
type Inferencer interface {
	InferT(x *Tensor, s *InferScratch) *Tensor
}

// Infer runs root's eval-mode forward pass over the arena and returns the
// arena-owned output tensor. It is bit-identical to root.ForwardT(x,
// false) but mutates nothing except the arena, making it safe to call
// concurrently on a shared network (one arena per goroutine).
func Infer(root Layer, x *Tensor, s *InferScratch) *Tensor {
	s.next = 0
	return layerInferT(root, x, s)
}

// layerInferT dispatches one layer's inference pass, adapting through the
// slice API for custom layers that do not implement Inferencer (the
// compat path allocates and is not goroutine-safe; every layer in this
// package takes the arena path).
func layerInferT(l Layer, x *Tensor, s *InferScratch) *Tensor {
	if il, ok := l.(Inferencer); ok {
		return il.InferT(x, s)
	}
	return s.grab().SetFromRows(l.Forward(x.ToRows(), false))
}

var (
	_ Inferencer = (*Network)(nil)
	_ Inferencer = (*Dense)(nil)
	_ Inferencer = (*activation)(nil)
	_ Inferencer = (*BatchNorm)(nil)
	_ Inferencer = (*Dropout)(nil)
	_ Inferencer = (*GradReverse)(nil)
	_ Inferencer = (*SkipConcat)(nil)
	_ Inferencer = (*FeatureGate)(nil)
)

// InferT implements Inferencer: the stack's layers run in order over the
// shared arena.
func (n *Network) InferT(x *Tensor, s *InferScratch) *Tensor {
	for _, l := range n.Layers {
		x = layerInferT(l, x, s)
	}
	return x
}

// InferT implements Inferencer: the affine map of ForwardT without the
// input cache (nothing on the layer is written).
//
// Rows run through a 4-way row-blocked kernel: each weight row is loaded
// once and feeds four output rows (a quarter of the weight memory traffic
// of four single-row passes), and the per-input rank-1 update runs through
// the axpy kernels — AVX on capable amd64 hardware, portable Go elsewhere.
// This is where the micro-batching throughput win comes from on
// compute-bound generators. Each output element still accumulates its
// terms in ascending input order with ForwardT's per-row zero skip, one
// IEEE-rounded multiply and add per input (the vector kernels never fuse
// them), so the result is bit-identical to the row-at-a-time eval forward.
func (d *Dense) InferT(x *Tensor, s *InferScratch) *Tensor {
	out := s.grab().Reset(x.rows, d.Out)
	if d.Out == 1 {
		// Single-output layers follow ForwardT's Out==1 definition — one
		// wide dot per row, no zero skip — so the bit-identity contract
		// with the eval forward holds.
		for i := 0; i < x.rows; i++ {
			out.data[i] = d.b.Data[0] + vdot(x.Row(i), d.w.Data)
		}
		return out
	}
	i := 0
	for ; i+4 <= x.rows; i += 4 {
		x0, x1, x2, x3 := x.Row(i), x.Row(i+1), x.Row(i+2), x.Row(i+3)
		o0 := out.Row(i)[:d.Out]
		o1 := out.Row(i + 1)[:d.Out]
		o2 := out.Row(i + 2)[:d.Out]
		o3 := out.Row(i + 3)[:d.Out]
		copy(o0, d.b.Data)
		copy(o1, d.b.Data)
		copy(o2, d.b.Data)
		copy(o3, d.b.Data)
		for j := 0; j < d.In; j++ {
			wRow := d.w.Data[j*d.Out : (j+1)*d.Out]
			v := [4]float64{x0[j], x1[j], x2[j], x3[j]}
			if v[0] != 0 && v[1] != 0 && v[2] != 0 && v[3] != 0 {
				axpy4(&v, wRow, o0, o1, o2, o3)
				continue
			}
			// A zero input contributes no term in ForwardT (zero skip);
			// handle mixed blocks row by row to keep that exact.
			if v[0] != 0 {
				axpy1(v[0], wRow, o0)
			}
			if v[1] != 0 {
				axpy1(v[1], wRow, o1)
			}
			if v[2] != 0 {
				axpy1(v[2], wRow, o2)
			}
			if v[3] != 0 {
				axpy1(v[3], wRow, o3)
			}
		}
	}
	for ; i < x.rows; i++ {
		row := x.Row(i)
		o := out.Row(i)[:d.Out]
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

// InferT implements Inferencer for elementwise activations.
func (a *activation) InferT(x *Tensor, s *InferScratch) *Tensor {
	out := s.grab().Reset(x.rows, x.cols)
	switch a.kind {
	case actReLU:
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

// InferT implements Inferencer: the running-statistics normalization of
// ForwardT's eval branch. The running stats are read, never updated.
func (bn *BatchNorm) InferT(x *Tensor, s *InferScratch) *Tensor {
	n := x.rows
	// The per-column standard deviation is row-invariant: computing it
	// once per call instead of once per row changes nothing bit-wise
	// (every element still divides by the identical math.Sqrt value).
	std := s.grab().Reset(1, bn.Dim).Row(0)
	for j := range std {
		std[j] = math.Sqrt(bn.runningVar[j] + bn.Eps)
	}
	out := s.grab().Reset(n, bn.Dim)
	for i := 0; i < n; i++ {
		row := x.Row(i)
		o := out.Row(i)
		for j, v := range row {
			xh := (v - bn.runningMean[j]) / std[j]
			o[j] = bn.gamma.Data[j]*xh + bn.beta.Data[j]
		}
	}
	return out
}

// InferT implements Inferencer: dropout is the identity at inference.
func (d *Dropout) InferT(x *Tensor, _ *InferScratch) *Tensor { return x }

// InferT implements Inferencer: gradient reversal is the identity forward.
func (g *GradReverse) InferT(x *Tensor, _ *InferScratch) *Tensor { return x }

// InferT implements Inferencer: [inner(x), x] with the inner stack run
// over the same arena.
func (sc *SkipConcat) InferT(x *Tensor, s *InferScratch) *Tensor {
	h := layerInferT(sc.Inner, x, s)
	out := s.grab().Reset(x.rows, h.cols+x.cols)
	for i := 0; i < x.rows; i++ {
		row := out.Row(i)
		copy(row[:h.cols], h.Row(i))
		copy(row[h.cols:], x.Row(i))
	}
	return out
}
