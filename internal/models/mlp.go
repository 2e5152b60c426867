package models

import (
	"fmt"
	"math/rand"

	"netdrift/internal/nn"
)

// MLPClassifier is a plain two-hidden-layer perceptron trained with Adam.
type MLPClassifier struct {
	opts Options
	softmaxNet
}

var _ Classifier = (*MLPClassifier)(nil)

// NewMLPClassifier creates an untrained MLP classifier.
func NewMLPClassifier(opts Options) *MLPClassifier {
	if opts.Epochs == 0 {
		opts.Epochs = 30
	}
	return &MLPClassifier{opts: opts}
}

// Name implements Classifier.
func (m *MLPClassifier) Name() string { return "MLP" }

// Fit trains the network with softmax cross-entropy.
func (m *MLPClassifier) Fit(x [][]float64, y []int, numClasses int) error {
	if err := validateFit(x, y, numClasses); err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(m.opts.Seed))
	m.in = len(x[0])
	m.numClasses = numClasses
	m.net = nn.NewMLP(nn.MLPConfig{
		In:      m.in,
		Hidden:  []int{128, 64},
		Out:     numClasses,
		Dropout: 0.1,
		Rng:     rng,
	})
	return TrainSoftmaxNet(m.net, x, y, m.opts.Epochs, 64, 1e-3, rng)
}

// TrainSoftmaxNet trains net with softmax cross-entropy: epochs of
// shuffled minibatches (MinibatchesInto draws from rng) and one Adam step
// per batch at the given learning rate with decay 1e-5. It is the one
// softmax trainer behind TNet, MLP and the Fine-tune baseline; after the
// first batch of each shape a step allocates nothing.
func TrainSoftmaxNet(net *nn.Network, x [][]float64, y []int, epochs, batch int, lr float64, rng *rand.Rand) error {
	tr := newSoftmaxTrainer(net, x, y, lr)
	var perm []int
	var batches [][]int
	for epoch := 0; epoch < epochs; epoch++ {
		perm, batches = nn.MinibatchesInto(len(x), batch, rng, perm, batches)
		for _, idx := range batches {
			if err := tr.step(idx); err != nil {
				return fmt.Errorf("models: epoch %d: %w", epoch, err)
			}
		}
	}
	return nil
}

// softmaxTrainer holds one training run's optimizer and batch scratch.
type softmaxTrainer struct {
	net    *nn.Network
	params []*nn.Param
	opt    *nn.Adam
	x      [][]float64
	y      []int

	bx, grad nn.Tensor
	by       []int
}

func newSoftmaxTrainer(net *nn.Network, x [][]float64, y []int, lr float64) *softmaxTrainer {
	return &softmaxTrainer{net: net, params: net.Params(), opt: nn.NewAdam(lr, 1e-5), x: x, y: y}
}

// step runs forward, loss, backward and one optimizer update on the rows idx.
func (tr *softmaxTrainer) step(idx []int) error {
	nn.GatherInto(&tr.bx, tr.x, idx)
	tr.by = nn.GatherLabelsInto(tr.by, tr.y, idx)
	out := tr.net.ForwardT(&tr.bx)
	if _, err := nn.SoftmaxCET(out, tr.by, &tr.grad); err != nil {
		return err
	}
	nn.BackwardWindow(tr.net, &tr.grad, 0, 0)
	tr.opt.Step(tr.params)
	return nil
}

// softmaxNet is the fitted state TNet and MLPClassifier share, and their
// one predict body.
type softmaxNet struct {
	net        *nn.Network
	numClasses int
	in         int
}

// PredictProba implements Classifier. It only reads the classifier, so
// concurrent calls are safe.
func (s *softmaxNet) PredictProba(x [][]float64) ([][]float64, error) {
	if s.net == nil {
		return nil, ErrNotFitted
	}
	if len(x) == 0 {
		return nil, nil
	}
	if err := checkWidths(x, s.in); err != nil {
		return nil, err
	}
	var in nn.Tensor
	var scr MLPScratch
	return s.softmaxInfer(in.SetFromRows(x), &scr).ToRows(), nil
}

// softmaxInfer is the eval forward (nn.Infer) and a row softmax, both into
// scr. It only reads the network, so any number of goroutines may predict
// through one classifier, each with its own scratch.
func (s *softmaxNet) softmaxInfer(x *nn.Tensor, scr *MLPScratch) *nn.Tensor {
	logits := nn.Infer(s.net, x, &scr.infer)
	out := scr.out.Reset(logits.Rows(), logits.Cols())
	for i := 0; i < logits.Rows(); i++ {
		nn.SoftmaxInto(out.Row(i), logits.Row(i))
	}
	return out
}
