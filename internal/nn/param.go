// Package nn implements feed-forward neural networks with hand-derived
// backpropagation: dense layers, batch normalization, dropout, a gradient
// reversal layer (for adversarial domain adaptation), classification and
// reconstruction losses, and the Adam optimizer. It is the substrate for
// the paper's conditional GAN, the TNet/MLP classifiers, the VAE/AE
// ablation reconstructors, and the DANN/SCL/MatchNet/ProtoNet baselines.
//
// Everything is deterministic given the seeds supplied at construction; no
// package-level mutable state exists.
package nn

// Param is a flat learnable tensor with its accumulated gradient.
type Param struct {
	Name string
	Data []float64
	Grad []float64

	// steps counts the updates written to Data (optimizer steps, snapshot
	// restores). Shard replicas share it with the Data they share, so a
	// prefix kept on any replica sees every step (see ForwardKeep).
	steps *uint64
}

// NewParam allocates a named parameter of the given size.
func NewParam(name string, size int) *Param {
	return &Param{
		Name:  name,
		Data:  make([]float64, size),
		Grad:  make([]float64, size),
		steps: new(uint64),
	}
}

// version returns the number of updates written to Data so far.
func (p *Param) version() uint64 {
	if p.steps == nil {
		return 0
	}
	return *p.steps
}

// stepped records one update of Data.
func (p *Param) stepped() {
	if p.steps == nil {
		p.steps = new(uint64)
	}
	*p.steps++
}

// ZeroGrad clears the accumulated gradient.
func (p *Param) ZeroGrad() {
	for i := range p.Grad {
		p.Grad[i] = 0
	}
}

// ZeroGrads clears the gradients of all given parameters.
func ZeroGrads(params []*Param) {
	for _, p := range params {
		p.ZeroGrad()
	}
}
