package stats

import "math"

// NormalSF returns the standard normal survival function P(Z > z).
func NormalSF(z float64) float64 {
	return 0.5 * math.Erfc(z/math.Sqrt2)
}

// FisherZ transforms a correlation coefficient r into the Fisher z scale.
// Inputs are clamped away from ±1 to keep the transform finite.
func FisherZ(r float64) float64 {
	const clamp = 1 - 1e-12
	if r > clamp {
		r = clamp
	}
	if r < -clamp {
		r = -clamp
	}
	return 0.5 * math.Log((1+r)/(1-r))
}

// FisherZPValue returns the two-sided p-value for the null hypothesis of
// zero (partial) correlation r computed from n samples while conditioning
// on condSize variables.
func FisherZPValue(r float64, n, condSize int) float64 {
	df := n - condSize - 3
	if df <= 0 {
		return 1 // not enough samples to reject anything
	}
	z := math.Abs(FisherZ(r)) * math.Sqrt(float64(df))
	return 2 * NormalSF(z)
}
