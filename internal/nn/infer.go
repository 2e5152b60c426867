package nn

// This file is the one eval forward: every prediction, reconstruction and
// embedding of a trained network runs through Infer, over a caller-owned
// scratch arena instead of the per-layer scratch used by the training
// forward ForwardT. The training path stores activations and gradients on
// the layers themselves, which makes a network single-threaded; Infer
// keeps the network strictly read-only (weights and batch-norm running
// statistics are only read, never written), so any number of goroutines
// can run inference through one shared network as long as each owns its
// own InferScratch — and none runs ForwardT/BackwardT concurrently.
//
// Dense, the activations and FeatureGate run the forward kernels their
// ForwardT runs; batch normalization uses its running statistics and
// dropout is the identity. The output bits are pinned by the digests in
// infer_test.go at every kernel width.

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

// Infer runs root's eval forward pass over the arena and returns the
// arena-owned output tensor. It mutates nothing except the arena, making
// it safe to call concurrently on a shared network (one arena per
// goroutine).
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
	return d.forward(x, s.grab().Reset(x.rows, d.Out), nil)
}

// InferT implements Layer for elementwise activations.
func (a *activation) InferT(x *Tensor, s *InferScratch) *Tensor {
	return a.forward(x, s.grab().Reset(x.rows, x.cols))
}

// InferT implements Layer: the running-statistics normalization, with the
// per-column standard deviations in an arena buffer.
func (bn *BatchNorm) InferT(x *Tensor, s *InferScratch) *Tensor {
	std := s.grab().Reset(1, bn.Dim).Row(0)
	return bn.normalizeRunning(x, s.grab().Reset(x.rows, bn.Dim), std)
}

// InferT implements Layer: dropout is the identity at inference.
func (d *Dropout) InferT(x *Tensor, _ *InferScratch) *Tensor { return x }

// InferT implements Layer: gradient reversal is the identity forward.
func (g *GradReverse) InferT(x *Tensor, _ *InferScratch) *Tensor { return x }

// InferT implements Layer: [inner(x), x] with the inner stack run
// over the same arena.
func (sc *SkipConcat) InferT(x *Tensor, s *InferScratch) *Tensor {
	h := sc.Inner.InferT(x, s)
	return ConcatInto(s.grab(), h, x)
}
