package models

import (
	"math/rand"

	"netdrift/internal/nn"
)

// TNet is the deep tabular classifier used as the strongest model family in
// Table I: a feature gate (nn.FeatureGate) followed by a batch-normalized
// MLP trunk.
type TNet struct {
	opts Options

	net        *nn.Network
	numClasses int
	in         int
}

var _ Classifier = (*TNet)(nil)

// NewTNet creates an untrained TNet.
func NewTNet(opts Options) *TNet {
	if opts.Epochs == 0 {
		opts.Epochs = 35
	}
	return &TNet{opts: opts}
}

// Name implements Classifier.
func (t *TNet) Name() string { return "TNet" }

// Fit trains the gated tabular network.
func (t *TNet) Fit(x [][]float64, y []int, numClasses int) error {
	if err := validateFit(x, y, numClasses); err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(t.opts.Seed))
	t.in = len(x[0])
	t.numClasses = numClasses
	t.net = nn.NewNetwork(
		nn.NewFeatureGate(t.in, rng),
		nn.NewDense(t.in, 128, rng),
		nn.NewBatchNorm(128),
		nn.NewReLU(),
		nn.NewDropout(0.1, rng),
		nn.NewDense(128, 64, rng),
		nn.NewBatchNorm(64),
		nn.NewReLU(),
		nn.NewDense(64, numClasses, rng),
	)
	return TrainSoftmaxNet(t.net, x, y, t.opts.Epochs, 64, 1e-3, rng)
}

// PredictProba implements Classifier.
func (t *TNet) PredictProba(x [][]float64) ([][]float64, error) {
	if t.net == nil {
		return nil, ErrNotFitted
	}
	return softmaxForward(t.net, x, t.in)
}
