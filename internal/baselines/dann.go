package baselines

import (
	"fmt"
	"math"
	"math/rand"

	"netdrift/internal/dataset"
	"netdrift/internal/models"
	"netdrift/internal/nn"
)

// DANN implements Domain-Adversarial Neural Networks (Ganin & Lempitsky):
// a shared feature extractor trained to classify labels while a
// gradient-reversed domain head tries to tell source from target, pushing
// the features toward domain independence. Model-specific: it trains its
// own network, as in [14], [15].
type DANN struct {
	Epochs int // default 30
	Seed   int64

	// useSupCon adds the supervised-contrastive term: the SCL baseline.
	useSupCon bool
	scWeight  float64
}

// DANN's Adam learning rate, and the maximum gradient-reversal strength
// its schedule ramps to.
const (
	dannLR        = 1e-3
	dannLambdaMax = 1
)

var _ Method = (*DANN)(nil)

// NewSCL returns the SCL baseline [38]: DANN's adversarial training
// combined with a supervised contrastive embedding loss.
func NewSCL(epochs int, seed int64) *DANN {
	return &DANN{Epochs: epochs, Seed: seed, useSupCon: true, scWeight: 0.5}
}

// Name implements Method.
func (m *DANN) Name() string {
	if m.useSupCon {
		return "SCL"
	}
	return "DANN"
}

// Predict implements Method.
func (m *DANN) Predict(source, support, test *dataset.Dataset, _ models.Classifier) ([]int, error) {
	if err := validateInputs(source, support, test, true); err != nil {
		return nil, err
	}
	epochs := m.Epochs
	if epochs == 0 {
		epochs = 30
	}
	numClasses := numClassesOf(source, support, test)
	scaled, err := zScale(source.X, source.X, support.X, test.X)
	if err != nil {
		return nil, err
	}
	srcX, supX, testX := scaled[0], scaled[1], scaled[2]

	rng := rand.New(rand.NewSource(m.Seed))
	in := source.NumFeatures()
	feat := nn.NewNetwork(
		nn.NewDense(in, 128, rng),
		nn.NewReLU(),
		nn.NewDense(128, 64, rng),
		nn.NewReLU(),
	)
	labelHead := nn.NewNetwork(nn.NewDense(64, numClasses, rng))
	grl := &nn.GradReverse{Lambda: 0}
	domainHead := nn.NewNetwork(
		grl,
		nn.NewDense(64, 32, rng),
		nn.NewReLU(),
		nn.NewDense(32, 1, rng),
	)
	opt := nn.NewAdam(dannLR, 1e-5)
	params := append(append(feat.Params(), labelHead.Params()...), domainHead.Params()...)

	nSrc := len(srcX)
	// The batch count comes from one extra shuffle; its draws are part of
	// the rng stream.
	perm, batches := nn.MinibatchesInto(nSrc, 64, rng, nil, nil)
	totalSteps := epochs * len(batches)
	step := 0
	var scr dannScratch
	var tIdx []int
	for epoch := 0; epoch < epochs; epoch++ {
		perm, batches = nn.MinibatchesInto(nSrc, 64, rng, perm, batches)
		for _, idx := range batches {
			// DANN's schedule: lambda ramps from 0 to dannLambdaMax.
			p := float64(step) / float64(totalSteps)
			grl.Lambda = dannLambdaMax * (2/(1+math.Exp(-10*p)) - 1)
			step++

			// Source half: label loss + domain label 0.
			scr.gather(srcX, source.Y, idx)
			if err := m.adversarialStep(feat, labelHead, domainHead, &scr, 0); err != nil {
				return nil, fmt.Errorf("baselines: %s source step: %w", m.Name(), err)
			}
			// Target half: resample the tiny support set with replacement.
			tIdx = tIdx[:0]
			for range idx {
				tIdx = append(tIdx, rng.Intn(len(supX)))
			}
			scr.gather(supX, support.Y, tIdx)
			if err := m.adversarialStep(feat, labelHead, domainHead, &scr, 1); err != nil {
				return nil, fmt.Errorf("baselines: %s target step: %w", m.Name(), err)
			}
			opt.Step(params)
		}
	}
	return argmaxLogits(nn.NewNetwork(feat, labelHead), testX), nil
}

// dannScratch holds one adversarial step's batch and gradient buffers,
// reused across steps.
type dannScratch struct {
	x, gradLogits, gradD, gradZ nn.Tensor
	y                           []int
	targets                     []float64
	zRows                       [][]float64
}

// gather loads the rows idx of x and their labels as the step's batch.
func (s *dannScratch) gather(x [][]float64, y, idx []int) {
	nn.GatherInto(&s.x, x, idx)
	s.y = nn.GatherLabelsInto(s.y, y, idx)
}

// adversarialStep accumulates gradients for one domain's batch: label CE
// (plus optional SupCon) and adversarial domain BCE through the reversal.
func (m *DANN) adversarialStep(feat, labelHead, domainHead *nn.Network, s *dannScratch, domain float64) error {
	// z is feat's output scratch: it stays live until feat's next forward,
	// through both heads and the SupCon term below.
	z := feat.ForwardT(&s.x)

	logits := labelHead.ForwardT(z)
	if _, err := nn.SoftmaxCET(logits, s.y, &s.gradLogits); err != nil {
		return err
	}
	gz := s.gradZ.Reset(z.Rows(), z.Cols())
	copy(gz.Data(), labelHead.BackwardT(&s.gradLogits).Data())

	dLogit := domainHead.ForwardT(z)
	s.targets = s.targets[:0]
	for i := 0; i < z.Rows(); i++ {
		s.targets = append(s.targets, domain)
	}
	// Full-batch form: the gradient is normalized by the batch's rows (the
	// returned sum, unused here, over rows would be the mean loss).
	if _, err := nn.BCEWithLogitsTN(dLogit, s.targets, &s.gradD, float64(z.Rows())); err != nil {
		return err
	}
	g := gz.Data()
	for i, v := range domainHead.BackwardT(&s.gradD).Data() {
		g[i] += v
	}

	if m.useSupCon {
		s.zRows = s.zRows[:0]
		for i := 0; i < z.Rows(); i++ {
			s.zRows = append(s.zRows, z.Row(i))
		}
		_, gradSC, err := nn.SupConLoss(s.zRows, s.y, 0.5)
		if err != nil {
			return err
		}
		for i, row := range gradSC {
			gi := gz.Row(i)
			for j, v := range row {
				gi[j] += m.scWeight * v
			}
		}
	}
	nn.BackwardWindow(feat, gz, 0, 0)
	return nil
}
