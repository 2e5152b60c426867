// Package core implements the paper's contribution: the FS causal
// feature-separation method and the conditional-GAN reconstruction of
// domain-variant features, composed into a model-agnostic domain-adaptation
// Adapter (paper §V). Classifiers are trained exclusively on source-domain
// data; the Adapter aligns target samples to the source distribution at
// inference time.
package core

import (
	"errors"
	"fmt"

	"netdrift/internal/causal"
	"netdrift/internal/dataset"
	"netdrift/internal/stats"
)

// ErrNotFitted is returned when using an unfitted component.
var ErrNotFitted = errors.New("core: not fitted")

// FeatureSeparator runs the FS method: scale features to [-1, 1] (fitted on
// source), pool source and few-shot target samples with an F-node, and
// identify the soft-intervention targets as domain-variant features.
type FeatureSeparator struct {
	Config causal.FNodeConfig

	scaler    *stats.MinMaxScaler
	variant   []int
	invariant []int
	fitted    bool
}

// NewFeatureSeparator creates a separator with the given CI configuration.
func NewFeatureSeparator(cfg causal.FNodeConfig) *FeatureSeparator {
	return &FeatureSeparator{Config: cfg}
}

// Fit learns the scaling from source data and separates features using the
// (typically few-shot) target sample.
func (s *FeatureSeparator) Fit(sourceX, targetX [][]float64) error {
	_, err := s.fit(sourceX, targetX)
	return err
}

// fit is Fit that also returns the scaled source rows the search ran on,
// Scale(sourceX) bit for bit, so a caller that needs them next (Adapter.Fit)
// does not scale the source a second time.
func (s *FeatureSeparator) fit(sourceX, targetX [][]float64) ([][]float64, error) {
	if len(sourceX) == 0 || len(targetX) == 0 {
		return nil, fmt.Errorf("core: separator needs source and target samples (%d, %d)", len(sourceX), len(targetX))
	}
	scaler := stats.NewMinMaxScaler(-1, 1)
	if err := scaler.Fit(sourceX); err != nil {
		return nil, fmt.Errorf("core: fit scaler: %w", err)
	}
	srcScaled, err := scaler.Transform(sourceX)
	if err != nil {
		return nil, err
	}
	tgtScaled, err := scaler.Transform(targetX)
	if err != nil {
		return nil, err
	}
	res, err := causal.FindVariantFeatures(srcScaled, tgtScaled, s.Config)
	if err != nil {
		return nil, fmt.Errorf("core: feature separation: %w", err)
	}
	s.scaler = scaler
	s.variant = res.Variant
	s.invariant = res.Invariant
	s.fitted = true
	return srcScaled, nil
}

// Variant returns the identified domain-variant feature indices.
func (s *FeatureSeparator) Variant() []int {
	return append([]int(nil), s.variant...)
}

// Invariant returns the identified domain-invariant feature indices.
func (s *FeatureSeparator) Invariant() []int {
	return append([]int(nil), s.invariant...)
}

// Scale applies the fitted [-1, 1] scaling.
func (s *FeatureSeparator) Scale(x [][]float64) ([][]float64, error) {
	if !s.fitted {
		return nil, ErrNotFitted
	}
	return s.scaler.Transform(x)
}

// Split partitions scaled rows into (invariant, variant) column groups.
func (s *FeatureSeparator) Split(scaled [][]float64) (inv, vr [][]float64, err error) {
	if !s.fitted {
		return nil, nil, ErrNotFitted
	}
	inv = selectCols(scaled, s.invariant)
	vr = selectCols(scaled, s.variant)
	return inv, vr, nil
}

// Merge reassembles full-width rows from invariant and variant column
// groups (inverse of Split).
func (s *FeatureSeparator) Merge(inv, vr [][]float64) ([][]float64, error) {
	if !s.fitted {
		return nil, ErrNotFitted
	}
	if len(inv) != len(vr) {
		return nil, fmt.Errorf("core: merge row mismatch %d vs %d", len(inv), len(vr))
	}
	width := len(s.invariant) + len(s.variant)
	out := make([][]float64, len(inv))
	for i := range inv {
		row := make([]float64, width)
		for k, c := range s.invariant {
			row[c] = inv[i][k]
		}
		for k, c := range s.variant {
			row[c] = vr[i][k]
		}
		out[i] = row
	}
	return out, nil
}

// InvariantDataset projects a dataset onto the invariant features after
// scaling — the training input of the FS-only variant of the method.
func (s *FeatureSeparator) InvariantDataset(d *dataset.Dataset) (*dataset.Dataset, error) {
	if !s.fitted {
		return nil, ErrNotFitted
	}
	scaled, err := s.Scale(d.X)
	if err != nil {
		return nil, err
	}
	out := d.Clone()
	out.X = scaled
	return out.SelectFeatures(s.invariant)
}

func selectCols(x [][]float64, cols []int) [][]float64 {
	out := make([][]float64, len(x))
	for i, row := range x {
		r := make([]float64, len(cols))
		for k, c := range cols {
			r[k] = row[c]
		}
		out[i] = r
	}
	return out
}
