// Package scm implements structural causal models: directed acyclic graphs
// of feature mechanisms that can be sampled observationally or under *soft
// interventions* — interventions that modify a mechanism's conditional
// distribution (mean shift, noise rescale, mechanism dampening) rather than
// clamping the value.
//
// The paper treats the drift between a source network domain and a target
// network domain as exactly such soft interventions on an unknown feature
// subset (§V-A). Building the synthetic datasets on an SCM therefore gives
// the reproduction two things the gated ITU datasets cannot: (1) domain
// shift whose generative process matches the paper's modelling assumption,
// and (2) ground-truth intervention targets against which the FS method's
// variant-feature identification can be scored.
package scm

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
)

// Nonlinearity selects a node's mechanism shape.
type Nonlinearity int

// Supported mechanism nonlinearities.
const (
	Linear Nonlinearity = iota + 1
	Tanh
	ReLU
)

// String implements fmt.Stringer.
func (n Nonlinearity) String() string {
	switch n {
	case Linear:
		return "linear"
	case Tanh:
		return "tanh"
	case ReLU:
		return "relu"
	default:
		return fmt.Sprintf("Nonlinearity(%d)", int(n))
	}
}

// Node is one feature's structural mechanism:
//
//	X_i = f(Σ_j w_j · X_parent(j) + bias) + noiseStd·ε,  ε ~ N(0,1)
type Node struct {
	Parents  []int     // indices of parent nodes; must all be < this node's index
	Weights  []float64 // one weight per parent
	Bias     float64
	NoiseStd float64
	NL       Nonlinearity
}

// InterventionKind enumerates the supported soft interventions.
type InterventionKind int

// Soft intervention kinds. Each alters P(X | Pa(X)) without severing the
// causal mechanism entirely:
//
//   - MeanShift adds Amount to the node's bias.
//   - NoiseScale multiplies the node's noise standard deviation by Amount.
//   - MechanismScale multiplies all incoming edge weights by Amount
//     (dampening or amplifying the causal influence of the parents).
const (
	MeanShift InterventionKind = iota + 1
	NoiseScale
	MechanismScale
)

// String implements fmt.Stringer.
func (k InterventionKind) String() string {
	switch k {
	case MeanShift:
		return "mean-shift"
	case NoiseScale:
		return "noise-scale"
	case MechanismScale:
		return "mechanism-scale"
	default:
		return fmt.Sprintf("InterventionKind(%d)", int(k))
	}
}

// Intervention is a soft intervention applied to a single target node.
type Intervention struct {
	Target int
	Kind   InterventionKind
	Amount float64
}

// Model is a structural causal model over len(Nodes) features, stored in
// topological order (every node's parents have smaller indices).
type Model struct {
	Nodes []Node
}

// ErrInvalidModel is returned by Validate for malformed models.
var ErrInvalidModel = errors.New("scm: invalid model")

// Validate checks topological ordering and weight/parent agreement.
func (m *Model) Validate() error {
	if len(m.Nodes) == 0 {
		return fmt.Errorf("%w: no nodes", ErrInvalidModel)
	}
	for i, nd := range m.Nodes {
		if len(nd.Parents) != len(nd.Weights) {
			return fmt.Errorf("%w: node %d has %d parents but %d weights",
				ErrInvalidModel, i, len(nd.Parents), len(nd.Weights))
		}
		for _, p := range nd.Parents {
			if p < 0 || p >= i {
				return fmt.Errorf("%w: node %d has parent %d (must be in [0,%d))",
					ErrInvalidModel, i, p, i)
			}
		}
		if nd.NoiseStd < 0 {
			return fmt.Errorf("%w: node %d has negative noise std", ErrInvalidModel, i)
		}
		switch nd.NL {
		case Linear, Tanh, ReLU:
		default:
			return fmt.Errorf("%w: node %d has unknown nonlinearity %d", ErrInvalidModel, i, nd.NL)
		}
	}
	return nil
}

// NumFeatures returns the number of nodes/features.
func (m *Model) NumFeatures() int { return len(m.Nodes) }

// SampleConfig configures a draw from the model.
type SampleConfig struct {
	N             int            // number of samples
	Interventions []Intervention // soft interventions (nil for observational)
	// Exogenous is an optional additive per-sample, per-node input
	// (e.g. class-signature signal). When non-nil it must be N rows of
	// NumFeatures() values. It is added inside the nonlinearity, i.e.
	// it acts as an extra exogenous parent.
	Exogenous [][]float64
	Rng       *rand.Rand // required
}

// Sample draws rows from the (possibly intervened) model. Each row holds
// one value per node, in node order.
func (m *Model) Sample(cfg SampleConfig) ([][]float64, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	if cfg.N <= 0 {
		return nil, fmt.Errorf("scm: sample count %d must be positive", cfg.N)
	}
	if cfg.Rng == nil {
		return nil, errors.New("scm: SampleConfig.Rng is required")
	}
	d := len(m.Nodes)
	if cfg.Exogenous != nil {
		if len(cfg.Exogenous) != cfg.N {
			return nil, fmt.Errorf("scm: exogenous has %d rows, want %d", len(cfg.Exogenous), cfg.N)
		}
		for i, row := range cfg.Exogenous {
			if len(row) != d {
				return nil, fmt.Errorf("scm: exogenous row %d has %d values, want %d", i, len(row), d)
			}
		}
	}

	// Materialize per-node intervention adjustments.
	biasAdj := make([]float64, d)
	noiseMul := make([]float64, d)
	weightMul := make([]float64, d)
	for i := range noiseMul {
		noiseMul[i] = 1
		weightMul[i] = 1
	}
	for _, iv := range cfg.Interventions {
		if iv.Target < 0 || iv.Target >= d {
			return nil, fmt.Errorf("scm: intervention target %d out of range [0,%d)", iv.Target, d)
		}
		switch iv.Kind {
		case MeanShift:
			biasAdj[iv.Target] += iv.Amount
		case NoiseScale:
			noiseMul[iv.Target] *= iv.Amount
		case MechanismScale:
			weightMul[iv.Target] *= iv.Amount
		default:
			return nil, fmt.Errorf("scm: unknown intervention kind %d", iv.Kind)
		}
	}

	out := make([][]float64, cfg.N)
	for s := 0; s < cfg.N; s++ {
		row := make([]float64, d)
		for i, nd := range m.Nodes {
			pre := nd.Bias + biasAdj[i]
			for j, p := range nd.Parents {
				pre += nd.Weights[j] * weightMul[i] * row[p]
			}
			if cfg.Exogenous != nil {
				pre += cfg.Exogenous[s][i]
			}
			v := applyNL(nd.NL, pre)
			v += nd.NoiseStd * noiseMul[i] * cfg.Rng.NormFloat64()
			row[i] = v
		}
		out[s] = row
	}
	return out, nil
}

func applyNL(nl Nonlinearity, x float64) float64 {
	switch nl {
	case Tanh:
		return math.Tanh(x)
	case ReLU:
		if x < 0 {
			return 0
		}
		return x
	default:
		return x
	}
}

// Targets returns the sorted, de-duplicated set of intervened node indices.
func Targets(ivs []Intervention) []int {
	seen := make(map[int]bool, len(ivs))
	var out []int
	for _, iv := range ivs {
		if !seen[iv.Target] {
			seen[iv.Target] = true
			out = append(out, iv.Target)
		}
	}
	// insertion-order independent: selection sort on the small slice
	for i := 0; i < len(out); i++ {
		for j := i + 1; j < len(out); j++ {
			if out[j] < out[i] {
				out[i], out[j] = out[j], out[i]
			}
		}
	}
	return out
}
