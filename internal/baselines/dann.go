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
	Epochs int     // default 30
	LR     float64 // default 1e-3
	Lambda float64 // max gradient-reversal strength; default 1 (ramped)
	Seed   int64

	// useSupCon adds the supervised-contrastive term: the SCL baseline.
	useSupCon bool
	scWeight  float64
}

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
	lr := m.LR
	if lr == 0 {
		lr = 1e-3
	}
	lambdaMax := m.Lambda
	if lambdaMax == 0 {
		lambdaMax = 1
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
	opt := nn.NewAdam(lr, 1e-5)
	params := append(append(feat.Params(), labelHead.Params()...), domainHead.Params()...)

	nSrc := len(srcX)
	batches := nn.Minibatches(nSrc, 64, rng)
	totalSteps := epochs * len(batches)
	step := 0
	for epoch := 0; epoch < epochs; epoch++ {
		for _, idx := range nn.Minibatches(nSrc, 64, rng) {
			// DANN's schedule: lambda ramps from 0 to lambdaMax.
			p := float64(step) / float64(totalSteps)
			grl.Lambda = lambdaMax * (2/(1+math.Exp(-10*p)) - 1)
			step++

			// Source half: label loss + domain label 0.
			bx := nn.Gather(srcX, idx)
			by := nn.GatherLabels(source.Y, idx)
			if err := m.adversarialStep(feat, labelHead, domainHead, bx, by, 0); err != nil {
				return nil, fmt.Errorf("baselines: %s source step: %w", m.Name(), err)
			}
			// Target half: resample the tiny support set with replacement.
			tIdx := make([]int, len(idx))
			for i := range tIdx {
				tIdx[i] = rng.Intn(len(supX))
			}
			tx := nn.Gather(supX, tIdx)
			ty := nn.GatherLabels(support.Y, tIdx)
			if err := m.adversarialStep(feat, labelHead, domainHead, tx, ty, 1); err != nil {
				return nil, fmt.Errorf("baselines: %s target step: %w", m.Name(), err)
			}
			opt.Step(params)
		}
	}

	z := feat.Forward(testX, false)
	return argmaxForward2(labelHead, z), nil
}

// adversarialStep accumulates gradients for one domain's batch: label CE
// (plus optional SupCon) and adversarial domain BCE through the reversal.
func (m *DANN) adversarialStep(feat, labelHead, domainHead *nn.Network, bx [][]float64, by []int, domain float64) error {
	z := feat.Forward(bx, true)

	logits := labelHead.Forward(z, true)
	_, gradLogits, err := nn.SoftmaxCE(logits, by)
	if err != nil {
		return err
	}
	gradZ := labelHead.Backward(gradLogits)

	dLogit := domainHead.Forward(z, true)
	_, gradD, err := nn.BCEWithLogits(dLogit, constTargets(len(bx), domain))
	if err != nil {
		return err
	}
	gradZD := domainHead.Backward(gradD)
	for i := range gradZ {
		for j := range gradZ[i] {
			gradZ[i][j] += gradZD[i][j]
		}
	}

	if m.useSupCon {
		_, gradSC, err := nn.SupConLoss(z, by, 0.5)
		if err != nil {
			return err
		}
		for i := range gradZ {
			for j := range gradZ[i] {
				gradZ[i][j] += m.scWeight * gradSC[i][j]
			}
		}
	}
	feat.Backward(gradZ)
	return nil
}

func constTargets(n int, v float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = v
	}
	return out
}

func argmaxForward2(head *nn.Network, z [][]float64) []int {
	logits := head.Forward(z, false)
	out := make([]int, len(logits))
	for i, row := range logits {
		best := 0
		for j, v := range row {
			if v > row[best] {
				best = j
			}
		}
		out[i] = best
	}
	return out
}
