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
// each InferT below runs its layer's forward kernel or mirrors its
// ForwardT eval branch loop for loop, pinned by the golden tests in
// infer_test.go.

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

// Infer runs root's eval-mode forward pass over the arena and returns the
// arena-owned output tensor. It is bit-identical to root.ForwardT(x,
// false) but mutates nothing except the arena, making it safe to call
// concurrently on a shared network (one arena per goroutine).
func Infer(root Layer, x *Tensor, s *InferScratch) *Tensor {
	s.next = 0
	return root.InferT(x, s)
}

// InferT implements Layer: the stack's layers run in order over the
// shared arena.
func (n *Network) InferT(x *Tensor, s *InferScratch) *Tensor {
	for _, l := range n.Layers {
		x = l.InferT(x, s)
	}
	return x
}

// InferT implements Layer: ForwardT's forward kernel without the input
// cache (nothing on the layer is written).
func (d *Dense) InferT(x *Tensor, s *InferScratch) *Tensor {
	return d.forward(x, s.grab().Reset(x.rows, d.Out))
}

// InferT implements Layer for elementwise activations.
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

// InferT implements Layer: the running-statistics normalization of
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
			o[j] = float64(bn.gamma.Data[j]*xh) + bn.beta.Data[j]
		}
	}
	return out
}

// InferT implements Layer: dropout is the identity at inference.
func (d *Dropout) InferT(x *Tensor, _ *InferScratch) *Tensor { return x }

// InferT implements Layer: gradient reversal is the identity forward.
func (g *GradReverse) InferT(x *Tensor, _ *InferScratch) *Tensor { return x }

// InferT implements Layer: [inner(x), x] with the inner stack run
// over the same arena.
func (sc *SkipConcat) InferT(x *Tensor, s *InferScratch) *Tensor {
	h := sc.Inner.InferT(x, s)
	out := s.grab().Reset(x.rows, h.cols+x.cols)
	for i := 0; i < x.rows; i++ {
		row := out.Row(i)
		copy(row[:h.cols], h.Row(i))
		copy(row[h.cols:], x.Row(i))
	}
	return out
}
