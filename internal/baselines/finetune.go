package baselines

import (
	"fmt"
	"math/rand"

	"netdrift/internal/dataset"
	"netdrift/internal/models"
	"netdrift/internal/nn"
)

// FineTune pre-trains an MLP on the source domain and then re-optimizes all
// parameters on the few-shot target support at a lower learning rate. The
// paper applies this baseline to the MLP model only (§VI-B(a)) and
// fine-tunes all parameters rather than the last layer.
type FineTune struct {
	PretrainEpochs int     // default 30
	TuneEpochs     int     // default 60 (tiny support set)
	LR             float64 // pretrain LR; default 1e-3
	TuneLR         float64 // fine-tune LR; default 2e-4
	Seed           int64
}

var _ Method = (*FineTune)(nil)

// Name implements Method.
func (*FineTune) Name() string { return "Fine-tune" }

// Predict implements Method.
func (m *FineTune) Predict(source, support, test *dataset.Dataset, _ models.Classifier) ([]int, error) {
	if err := validateInputs(source, support, test, true); err != nil {
		return nil, err
	}
	pre := m.PretrainEpochs
	if pre == 0 {
		pre = 30
	}
	tune := m.TuneEpochs
	if tune == 0 {
		tune = 60
	}
	lr := m.LR
	if lr == 0 {
		lr = 1e-3
	}
	tuneLR := m.TuneLR
	if tuneLR == 0 {
		tuneLR = 2e-4
	}
	numClasses := numClassesOf(source, support, test)
	scaled, err := zScale(source.X, source.X, support.X, test.X)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(m.Seed))
	net := nn.NewMLP(nn.MLPConfig{
		In:      source.NumFeatures(),
		Hidden:  []int{128, 64},
		Out:     numClasses,
		Dropout: 0.1,
		Rng:     rng,
	})
	if err := models.TrainSoftmaxNet(net, scaled[0], source.Y, pre, 64, lr, rng); err != nil {
		return nil, fmt.Errorf("baselines: finetune pretrain: %w", err)
	}
	if err := models.TrainSoftmaxNet(net, scaled[1], support.Y, tune, 16, tuneLR, rng); err != nil {
		return nil, fmt.Errorf("baselines: finetune tune: %w", err)
	}
	return argmaxLogits(net, scaled[2]), nil
}

// argmaxLogits runs net's eval forward over x and returns each row's
// highest-scoring class (the first on ties).
func argmaxLogits(net nn.Layer, x [][]float64) []int {
	var in nn.Tensor
	logits := net.ForwardT(in.SetFromRows(x), false)
	out := make([]int, logits.Rows())
	for i := range out {
		row := logits.Row(i)
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
