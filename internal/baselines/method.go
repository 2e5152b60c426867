// Package baselines implements every compared approach from the paper's
// evaluation (§VI-A): the naive baselines (SrcOnly, TarOnly, S&T,
// Fine-Tune), domain-independent representation learning (CORAL, DANN,
// SCL), few-shot learners (MatchNet, ProtoNet), and the causal baselines
// (CMT, ICD). Model-agnostic methods accept any models.Classifier;
// model-specific methods (DANN, SCL, MatchNet, ProtoNet) train their own
// networks, as in the original works.
package baselines

import (
	"errors"
	"fmt"
	"math/rand"

	"netdrift/internal/dataset"
	"netdrift/internal/models"
	"netdrift/internal/stats"
)

// Method is a domain-adaptation approach evaluated on the paper's protocol:
// train on all source samples plus a few-shot target support set, then
// predict labels for target test rows.
type Method interface {
	// Name identifies the method as it appears in Table I.
	Name() string
	// Predict trains per the method's protocol and labels the test rows.
	// Only an AgnosticMethod uses clf; model-specific methods train their
	// own networks, ignore it, and accept nil.
	Predict(source, support, test *dataset.Dataset, clf models.Classifier) ([]int, error)
}

// AgnosticMethod is a model-agnostic Method whose adaptation does not depend
// on the classifier. Adapt is a pure data transform of its inputs, and
// classifiers never mutate the rows they are handed, so one Adapted serves
// any number of classifiers: Table I adapts once per cell and fits all four
// classifier columns on the result.
type AgnosticMethod interface {
	Method
	// Adapt runs the method's classifier-independent adaptation.
	Adapt(source, support, test *dataset.Dataset) (*Adapted, error)
}

// Adapted is what AgnosticMethod.Adapt hands the classifier: its training
// rows and labels, the test rows it labels, and the class count it fits.
type Adapted struct {
	TrainX     [][]float64
	TrainY     []int
	TestX      [][]float64
	NumClasses int
}

// Classify fits clf on the adapted training rows and labels the adapted
// test rows.
func (a *Adapted) Classify(clf models.Classifier) ([]int, error) {
	if err := clf.Fit(a.TrainX, a.TrainY, a.NumClasses); err != nil {
		return nil, fmt.Errorf("baselines: %s fit: %w", clf.Name(), err)
	}
	return models.PredictClasses(clf, a.TestX)
}

// PredictAdapted is Predict for an AgnosticMethod: Adapt, then Classify.
func PredictAdapted(m AgnosticMethod, source, support, test *dataset.Dataset, clf models.Classifier) ([]int, error) {
	a, err := m.Adapt(source, support, test)
	if err != nil {
		return nil, err
	}
	return a.Classify(clf)
}

// ErrInvalidInput is returned for malformed method inputs.
var ErrInvalidInput = errors.New("baselines: invalid input")

func validateInputs(source, support, test *dataset.Dataset, needSupport bool) error {
	if source == nil || test == nil {
		return fmt.Errorf("%w: nil dataset", ErrInvalidInput)
	}
	if err := source.Validate(); err != nil {
		return fmt.Errorf("%w: source: %v", ErrInvalidInput, err)
	}
	if err := test.Validate(); err != nil {
		return fmt.Errorf("%w: test: %v", ErrInvalidInput, err)
	}
	if source.NumFeatures() != test.NumFeatures() {
		return fmt.Errorf("%w: width mismatch source %d test %d",
			ErrInvalidInput, source.NumFeatures(), test.NumFeatures())
	}
	if needSupport {
		if support == nil {
			return fmt.Errorf("%w: nil support set", ErrInvalidInput)
		}
		if err := support.Validate(); err != nil {
			return fmt.Errorf("%w: support: %v", ErrInvalidInput, err)
		}
		if support.NumFeatures() != source.NumFeatures() {
			return fmt.Errorf("%w: support width %d", ErrInvalidInput, support.NumFeatures())
		}
	}
	return nil
}

// zScale fits a z-score scaler on fit rows and transforms each batch.
func zScale(fit [][]float64, batches ...[][]float64) ([][][]float64, error) {
	sc := stats.NewStandardScaler()
	if err := sc.Fit(fit); err != nil {
		return nil, err
	}
	out := make([][][]float64, len(batches))
	for i, b := range batches {
		t, err := sc.Transform(b)
		if err != nil {
			return nil, err
		}
		out[i] = t
	}
	return out, nil
}

func numClassesOf(ds ...*dataset.Dataset) int {
	k := 0
	for _, d := range ds {
		if d == nil {
			continue
		}
		if c := d.NumClasses(); c > k {
			k = c
		}
	}
	return k
}

// SrcOnly trains the classifier on source data only — the lower bound that
// quantifies raw drift damage.
type SrcOnly struct{}

var _ AgnosticMethod = SrcOnly{}

// Name implements Method.
func (SrcOnly) Name() string { return "SrcOnly" }

// Predict implements Method.
func (m SrcOnly) Predict(source, support, test *dataset.Dataset, clf models.Classifier) ([]int, error) {
	return PredictAdapted(m, source, support, test, clf)
}

// Adapt implements AgnosticMethod.
func (SrcOnly) Adapt(source, support, test *dataset.Dataset) (*Adapted, error) {
	if err := validateInputs(source, support, test, false); err != nil {
		return nil, err
	}
	scaled, err := zScale(source.X, source.X, test.X)
	if err != nil {
		return nil, err
	}
	return &Adapted{TrainX: scaled[0], TrainY: source.Y, TestX: scaled[1], NumClasses: numClassesOf(source, test)}, nil
}

// TarOnly trains the classifier on the few-shot target support only.
type TarOnly struct{}

var _ AgnosticMethod = TarOnly{}

// Name implements Method.
func (TarOnly) Name() string { return "TarOnly" }

// Predict implements Method.
func (m TarOnly) Predict(source, support, test *dataset.Dataset, clf models.Classifier) ([]int, error) {
	return PredictAdapted(m, source, support, test, clf)
}

// Adapt implements AgnosticMethod.
func (TarOnly) Adapt(source, support, test *dataset.Dataset) (*Adapted, error) {
	if err := validateInputs(source, support, test, true); err != nil {
		return nil, err
	}
	scaled, err := zScale(support.X, support.X, test.X)
	if err != nil {
		return nil, err
	}
	return &Adapted{TrainX: scaled[0], TrainY: support.Y, TestX: scaled[1], NumClasses: numClassesOf(source, support, test)}, nil
}

// SAndT pools source and target support, oversampling the support so the
// target domain carries extra weight (the paper's S&T baseline).
type SAndT struct {
	// TargetBoost multiplies the support set by duplication; 0 selects a
	// factor that brings the support to roughly a quarter of the source
	// volume.
	TargetBoost int
	Seed        int64
}

var _ AgnosticMethod = SAndT{}

// Name implements Method.
func (SAndT) Name() string { return "S&T" }

// Predict implements Method.
func (m SAndT) Predict(source, support, test *dataset.Dataset, clf models.Classifier) ([]int, error) {
	return PredictAdapted(m, source, support, test, clf)
}

// Adapt implements AgnosticMethod.
func (m SAndT) Adapt(source, support, test *dataset.Dataset) (*Adapted, error) {
	if err := validateInputs(source, support, test, true); err != nil {
		return nil, err
	}
	boost := m.TargetBoost
	if boost == 0 {
		boost = source.NumSamples() / (4 * support.NumSamples())
		if boost < 1 {
			boost = 1
		}
	}
	pooled := source.Clone()
	for b := 0; b < boost; b++ {
		var err error
		pooled, err = dataset.Concat(pooled, support)
		if err != nil {
			return nil, err
		}
	}
	pooled = pooled.Shuffle(rand.New(rand.NewSource(m.Seed)))
	scaled, err := zScale(pooled.X, pooled.X, test.X)
	if err != nil {
		return nil, err
	}
	return &Adapted{TrainX: scaled[0], TrainY: pooled.Y, TestX: scaled[1], NumClasses: numClassesOf(source, support, test)}, nil
}
