package nn

import (
	"errors"
	"fmt"
)

// Container is implemented by layers that wrap other layers (Network,
// SkipConcat); it lets state walkers reach nested layers.
type Container interface {
	Sublayers() []Layer
}

// Sublayers implements Container.
func (n *Network) Sublayers() []Layer { return n.Layers }

// Sublayers implements Container.
func (s *SkipConcat) Sublayers() []Layer { return []Layer{s.Inner} }

// Stateful is implemented by layers carrying non-parameter state that must
// survive serialization (e.g. batch-norm running statistics).
type Stateful interface {
	// ExtraState returns the layer's non-parameter state slices.
	ExtraState() [][]float64
	// SetExtraState restores state captured by ExtraState.
	SetExtraState(state [][]float64) error
}

// ExtraState implements Stateful: running mean and variance.
func (bn *BatchNorm) ExtraState() [][]float64 {
	return [][]float64{
		append([]float64(nil), bn.runningMean...),
		append([]float64(nil), bn.runningVar...),
	}
}

// SetExtraState implements Stateful.
func (bn *BatchNorm) SetExtraState(state [][]float64) error {
	if len(state) != 2 || len(state[0]) != bn.Dim || len(state[1]) != bn.Dim {
		return fmt.Errorf("nn: batchnorm state shape mismatch (dim %d)", bn.Dim)
	}
	copy(bn.runningMean, state[0])
	copy(bn.runningVar, state[1])
	return nil
}

// walkLayers visits every layer depth-first in deterministic order.
func walkLayers(l Layer, visit func(Layer)) {
	visit(l)
	if c, ok := l.(Container); ok {
		for _, sub := range c.Sublayers() {
			walkLayers(sub, visit)
		}
	}
}

// Snapshot captures every parameter and every piece of stateful layer
// state, positionally. It is only valid for restoring into an identically
// constructed network.
type Snapshot struct {
	Params [][]float64   `json:"params"`
	Extra  [][][]float64 `json:"extra"`
}

// TakeSnapshot captures the trainable and stateful state of a layer tree.
func TakeSnapshot(root Layer) *Snapshot {
	snap := &Snapshot{}
	for _, p := range root.Params() {
		snap.Params = append(snap.Params, append([]float64(nil), p.Data...))
	}
	walkLayers(root, func(l Layer) {
		if s, ok := l.(Stateful); ok {
			snap.Extra = append(snap.Extra, s.ExtraState())
		}
	})
	return snap
}

// ErrSnapshotMismatch is returned when a snapshot does not fit the network
// it is being restored into.
var ErrSnapshotMismatch = errors.New("nn: snapshot does not match network structure")

// RestoreSnapshot loads state captured by TakeSnapshot into an identically
// constructed layer tree.
func RestoreSnapshot(root Layer, snap *Snapshot) error {
	params := root.Params()
	if len(params) != len(snap.Params) {
		return fmt.Errorf("%w: %d params, snapshot has %d", ErrSnapshotMismatch, len(params), len(snap.Params))
	}
	for i, p := range params {
		if len(p.Data) != len(snap.Params[i]) {
			return fmt.Errorf("%w: param %d size %d, snapshot %d",
				ErrSnapshotMismatch, i, len(p.Data), len(snap.Params[i]))
		}
	}
	var stateful []Stateful
	walkLayers(root, func(l Layer) {
		if s, ok := l.(Stateful); ok {
			stateful = append(stateful, s)
		}
	})
	if len(stateful) != len(snap.Extra) {
		return fmt.Errorf("%w: %d stateful layers, snapshot has %d",
			ErrSnapshotMismatch, len(stateful), len(snap.Extra))
	}
	for i, p := range params {
		copy(p.Data, snap.Params[i])
		p.stepped()
	}
	for i, s := range stateful {
		if err := s.SetExtraState(snap.Extra[i]); err != nil {
			return fmt.Errorf("%w: stateful layer %d: %v", ErrSnapshotMismatch, i, err)
		}
	}
	return nil
}
