package models

import (
	"math/rand"
	"testing"

	"netdrift/internal/nn"
)

// TestSoftmaxTrainerSteadyStateAllocs is the allocation gate for the
// softmax trainer behind TNet, MLP and Fine-tune: once the layer scratch
// has grown to the batch shape and Adam has its moment buffers, a
// minibatch step (gather, forward, loss, backward, update) allocates
// nothing.
func TestSoftmaxTrainerSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is not meaningful under the race detector")
	}
	rng := rand.New(rand.NewSource(9))
	x, y := blobs(200, 40, 3, 2, rng)
	tnet := NewTNet(Options{Seed: 9, Epochs: 1})
	mlp := NewMLPClassifier(Options{Seed: 9, Epochs: 1})
	for _, c := range []struct {
		clf Classifier
		net func() *nn.Network
	}{
		{tnet, func() *nn.Network { return tnet.net }},
		{mlp, func() *nn.Network { return mlp.net }},
	} {
		if err := c.clf.Fit(x, y, 3); err != nil {
			t.Fatal(err)
		}
		tr := newSoftmaxTrainer(c.net(), x, y, 1e-3)
		idx := rng.Perm(len(x))[:64]
		step := func() {
			if err := tr.step(idx); err != nil {
				t.Fatal(err)
			}
		}
		step() // the first Adam step allocates its moment buffers
		step()
		if avg := testing.AllocsPerRun(20, step); avg != 0 {
			t.Errorf("%s: steady-state training step allocates %.2f/op, want 0", c.clf.Name(), avg)
		}
	}
}
