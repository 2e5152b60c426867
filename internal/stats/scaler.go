package stats

import (
	"errors"
	"fmt"
)

// ErrNotFitted is returned when a scaler is used before Fit.
var ErrNotFitted = errors.New("stats: scaler not fitted")

// MinMaxScaler maps each column to [lo, hi] (the paper uses [-1, 1]).
// Columns that are constant in the fitting data map to the midpoint.
type MinMaxScaler struct {
	Lo, Hi float64

	mins, maxs []float64
	fitted     bool
}

// NewMinMaxScaler returns a scaler targeting the range [lo, hi].
func NewMinMaxScaler(lo, hi float64) *MinMaxScaler {
	return &MinMaxScaler{Lo: lo, Hi: hi}
}

// Bounds returns copies of the fitted per-column minima and maxima (nil
// before Fit).
func (s *MinMaxScaler) Bounds() (mins, maxs []float64) {
	return append([]float64(nil), s.mins...), append([]float64(nil), s.maxs...)
}

// RestoreBounds re-creates a fitted scaler from serialized bounds.
func (s *MinMaxScaler) RestoreBounds(mins, maxs []float64) error {
	if len(mins) == 0 || len(mins) != len(maxs) {
		return fmt.Errorf("stats: bounds length mismatch %d vs %d", len(mins), len(maxs))
	}
	s.mins = append([]float64(nil), mins...)
	s.maxs = append([]float64(nil), maxs...)
	s.fitted = true
	return nil
}

// Fit learns per-column minima and maxima.
func (s *MinMaxScaler) Fit(x [][]float64) error {
	if len(x) == 0 || len(x[0]) == 0 {
		return ErrEmpty
	}
	d := len(x[0])
	s.mins = make([]float64, d)
	s.maxs = make([]float64, d)
	copy(s.mins, x[0])
	copy(s.maxs, x[0])
	for _, row := range x[1:] {
		if len(row) != d {
			return fmt.Errorf("stats: ragged row (len %d, want %d)", len(row), d)
		}
		for j, v := range row {
			if v < s.mins[j] {
				s.mins[j] = v
			}
			if v > s.maxs[j] {
				s.maxs[j] = v
			}
		}
	}
	s.fitted = true
	return nil
}

// Transform scales x into [Lo, Hi] using the fitted column ranges. Values
// outside the fitted range are clamped, which keeps drifted target features
// within the range the downstream networks were trained on.
func (s *MinMaxScaler) Transform(x [][]float64) ([][]float64, error) {
	if !s.fitted {
		return nil, ErrNotFitted
	}
	out := make([][]float64, len(x))
	span := s.Hi - s.Lo
	mid := (s.Hi + s.Lo) / 2
	for i, row := range x {
		if len(row) != len(s.mins) {
			return nil, fmt.Errorf("stats: row %d has %d columns, want %d", i, len(row), len(s.mins))
		}
		o := make([]float64, len(row))
		for j, v := range row {
			r := s.maxs[j] - s.mins[j]
			if r == 0 {
				o[j] = mid
				continue
			}
			t := s.Lo + span*(v-s.mins[j])/r
			if t < s.Lo {
				t = s.Lo
			}
			if t > s.Hi {
				t = s.Hi
			}
			o[j] = t
		}
		out[i] = o
	}
	return out, nil
}

// TransformRowInto scales one row into dst with the same arithmetic as
// Transform (clamping included), without allocating — the serving hot
// path. dst must have the fitted width; dst may alias row.
func (s *MinMaxScaler) TransformRowInto(dst, row []float64) error {
	if !s.fitted {
		return ErrNotFitted
	}
	if len(row) != len(s.mins) || len(dst) != len(s.mins) {
		return fmt.Errorf("stats: row has %d columns, dst %d, want %d", len(row), len(dst), len(s.mins))
	}
	span := s.Hi - s.Lo
	mid := (s.Hi + s.Lo) / 2
	for j, v := range row {
		r := s.maxs[j] - s.mins[j]
		if r == 0 {
			dst[j] = mid
			continue
		}
		t := s.Lo + span*(v-s.mins[j])/r
		if t < s.Lo {
			t = s.Lo
		}
		if t > s.Hi {
			t = s.Hi
		}
		dst[j] = t
	}
	return nil
}

// StandardScaler maps each column to zero mean and unit variance.
// Zero-variance columns are passed through centered only.
type StandardScaler struct {
	means, stds []float64
	fitted      bool
}

// NewStandardScaler returns an unfitted z-score scaler.
func NewStandardScaler() *StandardScaler { return &StandardScaler{} }

// Fit learns per-column means and standard deviations.
func (s *StandardScaler) Fit(x [][]float64) error {
	if len(x) == 0 || len(x[0]) == 0 {
		return ErrEmpty
	}
	d := len(x[0])
	s.means = make([]float64, d)
	s.stds = make([]float64, d)
	col := make([]float64, len(x))
	for j := 0; j < d; j++ {
		for i, row := range x {
			if len(row) != d {
				return fmt.Errorf("stats: ragged row (len %d, want %d)", len(row), d)
			}
			col[i] = row[j]
		}
		s.means[j] = Mean(col)
		s.stds[j] = StdDev(col)
	}
	s.fitted = true
	return nil
}

// Transform z-scores x using the fitted statistics.
func (s *StandardScaler) Transform(x [][]float64) ([][]float64, error) {
	if !s.fitted {
		return nil, ErrNotFitted
	}
	out := make([][]float64, len(x))
	for i, row := range x {
		if len(row) != len(s.means) {
			return nil, fmt.Errorf("stats: row %d has %d columns, want %d", i, len(row), len(s.means))
		}
		o := make([]float64, len(row))
		for j, v := range row {
			if s.stds[j] == 0 {
				o[j] = v - s.means[j]
				continue
			}
			o[j] = (v - s.means[j]) / s.stds[j]
		}
		out[i] = o
	}
	return out, nil
}
