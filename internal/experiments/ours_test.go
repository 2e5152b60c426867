package experiments

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"netdrift/internal/baselines"
	"netdrift/internal/core"
	"netdrift/internal/dataset"
	"netdrift/internal/models"
)

// TestOursMethodAdaptDeterministic checks what lets Table I adapt once per
// cell and fit all four classifier columns on the result: Adapt is a pure
// function of its inputs, so a second call returns the same bits, and a
// different support draw gives a different adaptation.
func TestOursMethodAdaptDeterministic(t *testing.T) {
	pair, err := MakePair("5gipc", QuickScale, 61)
	if err != nil {
		t.Fatal(err)
	}
	support, _, err := pair.TargetTrain.FewShot(3, true, rand.New(rand.NewSource(62)))
	if err != nil {
		t.Fatal(err)
	}
	m := NewFSGAN(QuickScale.GANEpochs, 63)
	adapt := func(support *dataset.Dataset) *baselines.Adapted {
		a, err := m.Adapt(pair.Source, support, pair.TargetTest)
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	a1, a2 := adapt(support), adapt(support)
	if !sameBits(a1.TrainX, a2.TrainX) || !sameBits(a1.TestX, a2.TestX) ||
		!slices.Equal(a1.TrainY, a2.TrainY) || a1.NumClasses != a2.NumClasses {
		t.Error("two Adapt calls on the same inputs differ")
	}
	support2, _, err := pair.TargetTrain.FewShot(3, true, rand.New(rand.NewSource(64)))
	if err != nil {
		t.Fatal(err)
	}
	if sameBits(adapt(support2).TestX, a1.TestX) {
		t.Error("a different support draw must change the aligned test rows")
	}
}

func sameBits(a, b [][]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if math.Float64bits(a[i][j]) != math.Float64bits(b[i][j]) {
				return false
			}
		}
	}
	return true
}

func TestOursMethodLabels(t *testing.T) {
	if got := NewFS(1).Name(); got != "FS (ours)" {
		t.Errorf("Name = %q", got)
	}
	if got := NewFSGAN(5, 1).Name(); got != "FS+GAN (ours)" {
		t.Errorf("Name = %q", got)
	}
	if got := NewFSRecon(core.ReconVAE, 5, 1).Name(); got != "FS+VAE" {
		t.Errorf("Name = %q", got)
	}
}

func TestTable1ResultAccessors(t *testing.T) {
	res := &Table1Result{
		Shots:       []int{5},
		Classifiers: []string{"TNet"},
		Rows: []MethodRow{
			{
				Method: "FS (ours)",
				Scores: map[int]map[string]float64{5: {"TNet": 80, "MLP": 70}},
			},
			{
				Method: "DANN",
				Scores: map[int]map[string]float64{5: {"*": 60}},
			},
		},
	}
	if v, ok := res.MeanScore("FS (ours)"); !ok || v != 75 {
		t.Errorf("MeanScore = %v,%v; want 75,true", v, ok)
	}
	if v, ok := res.MeanScore("DANN"); !ok || v != 60 {
		t.Errorf("model-specific MeanScore = %v,%v; want 60,true", v, ok)
	}
	if _, ok := res.MeanScore("nope"); ok {
		t.Error("unknown method should not have a mean")
	}
}

// TestFSGANModelAgnosticAcrossClassifiers spot-checks the shared-adapter
// path end to end with two different classifier families.
func TestFSGANModelAgnosticAcrossClassifiers(t *testing.T) {
	pair, err := MakePair("5gipc", QuickScale, 71)
	if err != nil {
		t.Fatal(err)
	}
	support, _, err := pair.TargetTrain.FewShot(5, true, rand.New(rand.NewSource(72)))
	if err != nil {
		t.Fatal(err)
	}
	m := NewFSGAN(QuickScale.GANEpochs, 73)
	for _, kind := range []models.Kind{models.KindMLP, models.KindRF} {
		clf, err := models.New(kind, models.Options{Seed: 73, Epochs: 6, Trees: 10})
		if err != nil {
			t.Fatal(err)
		}
		pred, err := m.Predict(pair.Source, support, pair.TargetTest, clf)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if len(pred) != pair.TargetTest.NumSamples() {
			t.Fatalf("%s: wrong prediction count", kind)
		}
	}
}
