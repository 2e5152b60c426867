package nn

import (
	"fmt"
	"math"
	"math/rand"
)

// Network is an ordered stack of layers trained end-to-end.
type Network struct {
	Layers []Layer
}

// NewNetwork stacks the given layers.
func NewNetwork(layers ...Layer) *Network {
	return &Network{Layers: layers}
}

// ForwardT runs the batch through all layers on the flat path. The result
// is the last layer's scratch buffer, valid until that layer's next call.
func (n *Network) ForwardT(x *Tensor) *Tensor {
	for _, l := range n.Layers {
		x = l.ForwardT(x)
	}
	return x
}

// BackwardT runs the gradient back through all layers on the flat path.
func (n *Network) BackwardT(gradOut *Tensor) *Tensor {
	return n.backwardWindow(gradOut, 0, fullWindow, false)
}

// fullWindow as a window's end means "to the last input column".
const fullWindow = math.MaxInt

// BackwardWindow is root.BackwardT(gradOut) for a caller that reads only
// the input-gradient columns [lo, hi): every parameter gradient and all
// layer state come out bit-identical to the full backward, as do the
// returned gradient's columns [lo, hi); its other columns are unspecified.
// An empty window (lo >= hi) is a caller that discards the input gradient.
// The window is bit-neutral because every input-gradient element is its
// own dot product (Dense) or its own sum (FeatureGate, SkipConcat) that
// nothing else reads: narrowing it only skips whole elements, never
// reorders the terms of one. Layers that cannot narrow their input gradient ignore the
// window and compute all of it.
func BackwardWindow(root Layer, gradOut *Tensor, lo, hi int) *Tensor {
	return backwardWalk(root, gradOut, lo, hi, false)
}

// BackwardFrozen is BackwardWindow for a caller that also discards every
// parameter gradient (a frozen network, e.g. the discriminator during a
// generator update): the window's input-gradient columns and all layer
// state are bit-identical to BackwardWindow's, and every parameter
// gradient is left as it was. It is bit-neutral because no input-gradient
// element reads a parameter gradient: skipping them only skips whole
// accumulations nothing else reads. It panics on a layer with parameters
// that cannot skip their gradients (only Dense can, and the containers
// pass the mode on; FeatureGate and BatchNorm cannot).
func BackwardFrozen(root Layer, gradOut *Tensor, lo, hi int) *Tensor {
	return backwardWalk(root, gradOut, lo, hi, true)
}

// backwardWalk is the one backward walk behind BackwardT, BackwardWindow
// and BackwardFrozen.
func backwardWalk(root Layer, gradOut *Tensor, lo, hi int, frozen bool) *Tensor {
	if w, ok := root.(windowed); ok {
		return w.backwardWindow(gradOut, lo, hi, frozen)
	}
	if frozen && len(root.Params()) > 0 {
		panic(fmt.Sprintf("nn: %T cannot run a frozen backward", root))
	}
	return root.BackwardT(gradOut)
}

// windowed is implemented by the layers that can narrow their input
// gradient to a column window: Dense, FeatureGate, SkipConcat and
// Network. All but FeatureGate can also skip their parameter gradients;
// FeatureGate panics when asked to.
type windowed interface {
	// backwardWindow is BackwardT computing only the input-gradient
	// columns [lo, hi) (see BackwardWindow), and no parameter gradients
	// when frozen (see BackwardFrozen).
	backwardWindow(gradOut *Tensor, lo, hi int, frozen bool) *Tensor
	// gradOutWindow returns the output-gradient columns the layer reads
	// when its input gradient is wanted over [lo, hi): the window the
	// layer after it in a Network computes.
	gradOutWindow(lo, hi int) (int, int)
}

// gradOutWindow is the output-gradient window of any layer: the full
// window for layers that do not narrow.
func gradOutWindow(l Layer, lo, hi int) (int, int) {
	if w, ok := l.(windowed); ok {
		return w.gradOutWindow(lo, hi)
	}
	return 0, fullWindow
}

func (n *Network) backwardWindow(gradOut *Tensor, lo, hi int, frozen bool) *Tensor {
	return backwardLayers(n.Layers, gradOut, lo, hi, frozen)
}

// backwardLayers runs the layers' backwards back to front, the first
// layer's over the window [lo, hi). Each later layer's window is the
// output-gradient window of the layer before it, so the recursion descends
// front to back to find the windows and runs the backwards on its way out.
func backwardLayers(layers []Layer, gradOut *Tensor, lo, hi int, frozen bool) *Tensor {
	if len(layers) == 0 {
		return gradOut
	}
	olo, ohi := gradOutWindow(layers[0], lo, hi)
	gradOut = backwardLayers(layers[1:], gradOut, olo, ohi, frozen)
	return backwardWalk(layers[0], gradOut, lo, hi, frozen)
}

// gradOutWindow chains the layers' windows front to back.
func (n *Network) gradOutWindow(lo, hi int) (int, int) {
	for _, l := range n.Layers {
		lo, hi = gradOutWindow(l, lo, hi)
	}
	return lo, hi
}

// ForwardKeep is root.ForwardT(x), bit for bit, that also keeps,
// in root's first Dense layer, its partial outputs over the input columns
// [0, k): the bias plus those columns' terms. A later ForwardResume with
// the same k on an input whose columns [0, k) are unchanged starts from
// them instead of recomputing them — for a net fed a block that is the
// same over several passes, such as the GAN's invariant features. The
// first Dense is root itself, the first layer of a Network, or the first
// Dense of a SkipConcat's inner stack; ForwardKeep panics if root has none.
func ForwardKeep(root Layer, x *Tensor, k int) *Tensor {
	return forwardPrefix(root, x, k, false)
}

// ForwardResume is root.ForwardT(x), bit for bit, starting the
// first Dense layer from the partial outputs the last ForwardKeep saved
// (see ForwardKeep). It is bit-neutral because the Dense forward adds each
// output's terms in ascending input column after its bias, so the kept
// partial is exactly that sum's state after column k-1. It panics if the
// kept partials are stale: no keep, a different k or row count, input
// columns [0, k) that differ in any bit, or a weight update since the keep
// (an optimizer step or a snapshot restore).
func ForwardResume(root Layer, x *Tensor, k int) *Tensor {
	return forwardPrefix(root, x, k, true)
}

// prefixed is implemented by the layers that reach a first Dense layer:
// Dense, SkipConcat and Network.
type prefixed interface {
	// forwardPrefix is ForwardT keeping (resume false) or resuming from
	// the first Dense layer's partial outputs over the input columns
	// [0, k).
	forwardPrefix(x *Tensor, k int, resume bool) *Tensor
}

// forwardPrefix dispatches a keep or resume to l, panicking when l cannot
// reach a first Dense layer.
func forwardPrefix(l Layer, x *Tensor, k int, resume bool) *Tensor {
	p, ok := l.(prefixed)
	if !ok {
		panic(fmt.Sprintf("nn: %T has no first Dense layer to keep a prefix in", l))
	}
	return p.forwardPrefix(x, k, resume)
}

// forwardPrefix implements prefixed: the first layer keeps or resumes, the
// rest run their ForwardT.
func (n *Network) forwardPrefix(x *Tensor, k int, resume bool) *Tensor {
	if len(n.Layers) == 0 {
		panic("nn: empty network has no first Dense layer")
	}
	x = forwardPrefix(n.Layers[0], x, k, resume)
	for _, l := range n.Layers[1:] {
		x = l.ForwardT(x)
	}
	return x
}

// Params returns all learnable parameters in layer order.
func (n *Network) Params() []*Param {
	var out []*Param
	for _, l := range n.Layers {
		out = append(out, l.Params()...)
	}
	return out
}

// MLPConfig describes a standard multilayer perceptron.
type MLPConfig struct {
	In         int
	Hidden     []int
	Out        int
	Activation func() Layer // default NewReLU
	Dropout    float64      // applied after each hidden activation
	BatchNorm  bool         // applied before each hidden activation
	Rng        *rand.Rand
}

// NewMLP builds a dense feed-forward network from the config.
func NewMLP(cfg MLPConfig) *Network {
	if cfg.Activation == nil {
		cfg.Activation = NewReLU
	}
	var layers []Layer
	in := cfg.In
	for _, h := range cfg.Hidden {
		layers = append(layers, NewDense(in, h, cfg.Rng))
		if cfg.BatchNorm {
			layers = append(layers, NewBatchNorm(h))
		}
		layers = append(layers, cfg.Activation())
		if cfg.Dropout > 0 {
			layers = append(layers, NewDropout(cfg.Dropout, cfg.Rng))
		}
		in = h
	}
	layers = append(layers, NewDense(in, cfg.Out, cfg.Rng))
	return NewNetwork(layers...)
}
