package nn

import (
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
func (n *Network) ForwardT(x *Tensor, train bool) *Tensor {
	for _, l := range n.Layers {
		x = l.ForwardT(x, train)
	}
	return x
}

// BackwardT runs the gradient back through all layers on the flat path.
func (n *Network) BackwardT(gradOut *Tensor) *Tensor {
	return n.backwardWindow(gradOut, 0, fullWindow)
}

// fullWindow as a window's end means "to the last input column".
const fullWindow = math.MaxInt

// BackwardWindow is root.BackwardT(gradOut) for a caller that reads only
// the input-gradient columns [lo, hi): every parameter gradient and all
// layer state come out bit-identical to the full backward, as do the
// returned gradient's columns [lo, hi); its other columns are unspecified.
// An empty window (lo >= hi) is a caller that discards the input gradient.
// The window is bit-neutral because every input-gradient element is its
// own dot product (Dense) or its own sum (SkipConcat) that nothing else
// reads: narrowing it only skips whole elements, never reorders the terms
// of one. Layers that cannot narrow their input gradient ignore the
// window and compute all of it.
func BackwardWindow(root Layer, gradOut *Tensor, lo, hi int) *Tensor {
	if w, ok := root.(windowed); ok {
		return w.backwardWindow(gradOut, lo, hi)
	}
	return root.BackwardT(gradOut)
}

// windowed is implemented by the layers that can narrow their input
// gradient to a column window: Dense, SkipConcat and Network.
type windowed interface {
	// backwardWindow is BackwardT computing only the input-gradient
	// columns [lo, hi) (see BackwardWindow).
	backwardWindow(gradOut *Tensor, lo, hi int) *Tensor
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

func (n *Network) backwardWindow(gradOut *Tensor, lo, hi int) *Tensor {
	return backwardLayers(n.Layers, gradOut, lo, hi)
}

// backwardLayers runs the layers' backwards back to front, the first
// layer's over the window [lo, hi). Each later layer's window is the
// output-gradient window of the layer before it, so the recursion descends
// front to back to find the windows and runs the backwards on its way out.
func backwardLayers(layers []Layer, gradOut *Tensor, lo, hi int) *Tensor {
	if len(layers) == 0 {
		return gradOut
	}
	olo, ohi := gradOutWindow(layers[0], lo, hi)
	gradOut = backwardLayers(layers[1:], gradOut, olo, ohi)
	return BackwardWindow(layers[0], gradOut, lo, hi)
}

// gradOutWindow chains the layers' windows front to back.
func (n *Network) gradOutWindow(lo, hi int) (int, int) {
	for _, l := range n.Layers {
		lo, hi = gradOutWindow(l, lo, hi)
	}
	return lo, hi
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
