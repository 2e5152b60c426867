package baselines

import (
	"fmt"

	"netdrift/internal/dataset"
	"netdrift/internal/mat"
	"netdrift/internal/models"
)

// CORAL implements Correlation Alignment (Sun et al., "Return of
// Frustratingly Easy Domain Adaptation"): re-color the source features so
// their second-order statistics match the target's, then train on the
// transformed source plus the support set. With few-shot targets the target
// covariance is heavily shrunk toward identity.
type CORAL struct {
	Seed int64
}

var _ AgnosticMethod = CORAL{}

// Name implements Method.
func (CORAL) Name() string { return "CORAL" }

// Predict implements Method.
func (m CORAL) Predict(source, support, test *dataset.Dataset, clf models.Classifier) ([]int, error) {
	return PredictAdapted(m, source, support, test, clf)
}

// Adapt implements AgnosticMethod.
func (m CORAL) Adapt(source, support, test *dataset.Dataset) (*Adapted, error) {
	if err := validateInputs(source, support, test, true); err != nil {
		return nil, err
	}
	scaled, err := zScale(source.X, source.X, support.X, test.X)
	if err != nil {
		return nil, err
	}
	srcX, supX, testX := scaled[0], scaled[1], scaled[2]
	d := source.NumFeatures()

	// The target covariance blends with identity, more so with fewer
	// support samples relative to dimension.
	shrink := float64(d) / float64(d+len(supX))
	if shrink > 0.95 {
		shrink = 0.95
	}

	cs, err := shrunkCovariance(srcX, 0.05)
	if err != nil {
		return nil, fmt.Errorf("baselines: coral source covariance: %w", err)
	}
	ct, err := shrunkCovariance(supX, shrink)
	if err != nil {
		return nil, fmt.Errorf("baselines: coral target covariance: %w", err)
	}
	// x' = x · A with A = Ls^{-T} Lt^{T}: then Cov(x') = A^T Cs A = Ct.
	ls, err := mat.Cholesky(cs)
	if err != nil {
		return nil, fmt.Errorf("baselines: coral source factor: %w", err)
	}
	lt, err := mat.Cholesky(ct)
	if err != nil {
		return nil, fmt.Errorf("baselines: coral target factor: %w", err)
	}
	// A = solve(Ls^T, Lt^T).
	a, err := mat.Solve(ls.T(), lt.T())
	if err != nil {
		return nil, fmt.Errorf("baselines: coral transform: %w", err)
	}
	transformed := applyRight(srcX, a)

	// Train on re-colored source plus the raw support samples.
	trainX := append(transformed, supX...)
	trainY := append(append([]int(nil), source.Y...), support.Y...)
	return &Adapted{TrainX: trainX, TrainY: trainY, TestX: testX, NumClasses: numClassesOf(source, support, test)}, nil
}

// shrunkCovariance returns (1-λ)·Cov + λ·I.
func shrunkCovariance(x [][]float64, lambda float64) (*mat.Matrix, error) {
	xm, err := mat.FromRows(x)
	if err != nil {
		return nil, err
	}
	cov, err := mat.Covariance(xm)
	if err != nil {
		return nil, err
	}
	d := cov.Rows()
	out := mat.Scale(1-lambda, cov)
	for i := 0; i < d; i++ {
		out.Set(i, i, out.At(i, i)+lambda)
	}
	return out, nil
}

// applyRight computes each row · A.
func applyRight(x [][]float64, a *mat.Matrix) [][]float64 {
	d := a.Rows()
	out := make([][]float64, len(x))
	for i, row := range x {
		o := make([]float64, a.Cols())
		for k := 0; k < d; k++ {
			v := row[k]
			if v == 0 {
				continue
			}
			for j := 0; j < a.Cols(); j++ {
				o[j] += v * a.At(k, j)
			}
		}
		out[i] = o
	}
	return out
}
