package nn

import (
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
	for i := len(n.Layers) - 1; i >= 0; i-- {
		gradOut = n.Layers[i].BackwardT(gradOut)
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
