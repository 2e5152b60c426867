package nn

import (
	"math/rand"
)

// Network is an ordered stack of layers trained end-to-end.
type Network struct {
	Layers []Layer

	legacy legacyIO
}

var _ TensorLayer = (*Network)(nil)

// NewNetwork stacks the given layers.
func NewNetwork(layers ...Layer) *Network {
	return &Network{Layers: layers}
}

// Forward runs the batch through all layers.
func (n *Network) Forward(x [][]float64, train bool) [][]float64 {
	if len(n.Layers) == 0 || len(x) == 0 {
		return x
	}
	return legacyForward(n, &n.legacy, x, train)
}

// ForwardT runs the batch through all layers on the flat path. The result
// is the last layer's scratch buffer, valid until that layer's next call.
func (n *Network) ForwardT(x *Tensor, train bool) *Tensor {
	for _, l := range n.Layers {
		x = LayerForwardT(l, x, train)
	}
	return x
}

// Backward runs the gradient back through all layers and returns the
// gradient w.r.t. the network input.
func (n *Network) Backward(gradOut [][]float64) [][]float64 {
	if len(n.Layers) == 0 || len(gradOut) == 0 {
		return gradOut
	}
	return legacyBackward(n, &n.legacy, gradOut)
}

// BackwardT runs the gradient back through all layers on the flat path.
func (n *Network) BackwardT(gradOut *Tensor) *Tensor {
	for i := len(n.Layers) - 1; i >= 0; i-- {
		gradOut = LayerBackwardT(n.Layers[i], gradOut)
	}
	return gradOut
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

// ConcatRows horizontally concatenates the rows of the given batches
// (all must have the same number of rows).
func ConcatRows(batches ...[][]float64) [][]float64 {
	if len(batches) == 0 {
		return nil
	}
	n := len(batches[0])
	out := make([][]float64, n)
	for i := 0; i < n; i++ {
		var width int
		for _, b := range batches {
			width += len(b[i])
		}
		row := make([]float64, 0, width)
		for _, b := range batches {
			row = append(row, b[i]...)
		}
		out[i] = row
	}
	return out
}

// SplitCols splits each row of x into consecutive column groups of the
// given widths.
func SplitCols(x [][]float64, widths ...int) [][][]float64 {
	out := make([][][]float64, len(widths))
	for g := range out {
		out[g] = make([][]float64, len(x))
	}
	for i, row := range x {
		off := 0
		for g, w := range widths {
			out[g][i] = row[off : off+w]
			off += w
		}
	}
	return out
}
