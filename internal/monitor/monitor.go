// Package monitor implements online drift detection over telemetry
// streams. The paper notes (§VI-D) that FS and the GAN only need re-running
// when the data distribution shifts again, and that such refreshes are
// "infrequently triggered"; this package supplies the trigger: it compares
// windows of incoming (unlabelled) telemetry against a source-domain
// reference using per-feature two-sample statistics and raises a drift
// signal when enough features depart.
package monitor

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"netdrift/internal/obs"
	"netdrift/internal/stats"
)

// ErrNotFitted is returned when the detector is used before Fit.
var ErrNotFitted = errors.New("monitor: detector not fitted")

// ErrRowWidth is wrapped by Fit and Check when a row's feature count does
// not match the fitted reference width (narrower or wider). Callers
// distinguish malformed telemetry from detector misuse with errors.Is.
var ErrRowWidth = errors.New("monitor: row width mismatch")

// ErrNonFinite is wrapped by Fit and Check when a value is NaN or ±Inf.
// NaN does not order, so letting one into the sorted empirical CDFs or
// PSI bins would silently corrupt every statistic in the window; the
// boundary rejects it instead.
var ErrNonFinite = errors.New("monitor: non-finite value")

// validateRows rejects ragged and non-finite rows before any statistic
// touches them. what names the input ("reference" or "window") in errors.
func validateRows(rows [][]float64, width int, what string) error {
	for i, row := range rows {
		if len(row) != width {
			return fmt.Errorf("%w: %s row %d has %d features, want %d",
				ErrRowWidth, what, i, len(row), width)
		}
		for j, v := range row {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("%w: %s row %d, feature %d", ErrNonFinite, what, i, j)
			}
		}
	}
	return nil
}

// Config tunes the drift detector.
//
// Zero values select the documented defaults. To switch a check off
// entirely, set its knob to any negative value (the sentinel): a float
// zero cannot distinguish "unset" from "explicitly disabled", so negative
// semantics carry that intent instead of being silently reset.
type Config struct {
	// Alpha is the per-feature KS-test significance level after Bonferroni
	// correction across features (default 0.01). Alpha < 0 disables the
	// KS check: no feature is ever rejected on the KS criterion.
	Alpha float64
	// MinFraction is the fraction of features that must reject before the
	// window is declared drifted (default 0.02, i.e. 2% of features).
	// MinFraction < 0 selects maximum sensitivity: a single rejecting
	// feature drifts the window (the floor the default also bottoms out at
	// for narrow data).
	MinFraction float64
	// PSIBins is the number of quantile bins for the population stability
	// index (default 10).
	PSIBins int
	// PSIThreshold flags a feature as drifted when its PSI exceeds this
	// value (industry convention: 0.2 = significant shift; default 0.2).
	// PSIThreshold < 0 disables the PSI check.
	PSIThreshold float64
	// Obs, when non-nil, records check/drift counters and per-feature
	// KS-statistic and PSI histograms for every window checked.
	Obs *obs.Observer `json:"-"`
}

func (c *Config) applyDefaults() {
	if c.Alpha == 0 {
		c.Alpha = 0.01
	}
	if c.MinFraction == 0 {
		c.MinFraction = 0.02
	}
	if c.PSIBins == 0 {
		c.PSIBins = 10
	}
	if c.PSIThreshold == 0 {
		c.PSIThreshold = 0.2
	}
}

// Detector holds per-feature reference distributions from the source
// domain.
type Detector struct {
	cfg Config

	refSorted [][]float64 // per feature, ascending reference values
	binEdges  [][]float64 // per feature, PSI quantile edges
	refProps  [][]float64 // per feature, reference bin proportions
	fitted    bool
}

// New creates an unfitted detector.
func New(cfg Config) *Detector {
	cfg.applyDefaults()
	return &Detector{cfg: cfg}
}

// Fit records the reference (source-domain) distribution.
func (d *Detector) Fit(reference [][]float64) error {
	if len(reference) < 10 {
		return fmt.Errorf("monitor: need >= 10 reference rows, have %d", len(reference))
	}
	width := len(reference[0])
	if width == 0 {
		return errors.New("monitor: zero-width reference rows")
	}
	if err := validateRows(reference, width, "reference"); err != nil {
		return err
	}
	d.refSorted = make([][]float64, width)
	d.binEdges = make([][]float64, width)
	d.refProps = make([][]float64, width)
	col := make([]float64, len(reference))
	for j := 0; j < width; j++ {
		for i, row := range reference {
			col[i] = row[j]
		}
		sorted := append([]float64(nil), col...)
		sort.Float64s(sorted)
		d.refSorted[j] = sorted

		edges := make([]float64, d.cfg.PSIBins-1)
		for b := 1; b < d.cfg.PSIBins; b++ {
			q, err := stats.Quantile(sorted, float64(b)/float64(d.cfg.PSIBins))
			if err != nil {
				return err
			}
			edges[b-1] = q
		}
		d.binEdges[j] = edges
		d.refProps[j] = binProportions(sorted, edges)
	}
	d.fitted = true
	return nil
}

// Width returns the fitted reference's feature count (0 before Fit) — the
// row width Check expects, so streaming callers can validate at their own
// boundary without a round trip through ErrRowWidth.
func (d *Detector) Width() int { return len(d.refSorted) }

// FeatureReport attributes one feature's contribution to a drift verdict.
type FeatureReport struct {
	// Index is the feature's column index.
	Index int
	// KSStat is the two-sample Kolmogorov–Smirnov statistic (sup-distance
	// between the empirical CDFs).
	KSStat float64
	// KSP is the KS p-value.
	KSP float64
	// PSI is the feature's population stability index.
	PSI float64
	// Rejected is true when the feature failed the (Bonferroni-corrected)
	// KS test or exceeded the PSI threshold — the features responsible for
	// a Drifted verdict.
	Rejected bool
}

// Report is the outcome of checking one telemetry window.
type Report struct {
	// Drifted is true when the window departs from the reference enough to
	// warrant re-running FS and retraining the GAN.
	Drifted bool
	// Features holds the full per-feature attribution behind the verdict,
	// in column order.
	Features []FeatureReport
	// DriftedFeatures lists feature indices whose KS test rejected.
	DriftedFeatures []int
	// KSPValues holds the per-feature KS p-values.
	KSPValues []float64
	// PSI holds the per-feature population stability index.
	PSI []float64
	// MaxPSI is the largest per-feature PSI in the window.
	MaxPSI float64
}

// TopOffenders returns up to k rejected features ordered by descending
// PSI (ties broken by smaller KS p-value) — the headline attribution for
// operator-facing output.
func (r *Report) TopOffenders(k int) []FeatureReport {
	out := make([]FeatureReport, 0, k)
	for _, f := range r.Features {
		if f.Rejected {
			out = append(out, f)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].PSI != out[j].PSI {
			return out[i].PSI > out[j].PSI
		}
		return out[i].KSP < out[j].KSP
	})
	if len(out) > k {
		out = out[:k]
	}
	return out
}

// Check compares a window of telemetry rows against the reference.
func (d *Detector) Check(window [][]float64) (*Report, error) {
	if !d.fitted {
		return nil, ErrNotFitted
	}
	if len(window) < 5 {
		return nil, fmt.Errorf("monitor: need >= 5 window rows, have %d", len(window))
	}
	o := d.cfg.Obs
	width := len(d.refSorted)
	if err := validateRows(window, width, "window"); err != nil {
		return nil, err
	}
	rep := &Report{
		Features:  make([]FeatureReport, width),
		KSPValues: make([]float64, width),
		PSI:       make([]float64, width),
	}
	ksEnabled := d.cfg.Alpha >= 0
	psiEnabled := d.cfg.PSIThreshold >= 0
	bonferroni := d.cfg.Alpha / float64(width)
	col := make([]float64, len(window))
	var psiHits int
	for j := 0; j < width; j++ {
		for i, row := range window {
			col[i] = row[j]
		}
		stat, p := KSTwoSample(d.refSorted[j], col)
		rep.KSPValues[j] = p
		ksRejected := ksEnabled && p < bonferroni
		if ksRejected {
			rep.DriftedFeatures = append(rep.DriftedFeatures, j)
		}
		psi := PSI(d.refProps[j], binProportions(sortedCopy(col), d.binEdges[j]))
		rep.PSI[j] = psi
		if psi > rep.MaxPSI {
			rep.MaxPSI = psi
		}
		psiRejected := psiEnabled && psi > d.cfg.PSIThreshold
		if psiRejected {
			psiHits++
		}
		rep.Features[j] = FeatureReport{
			Index:    j,
			KSStat:   stat,
			KSP:      p,
			PSI:      psi,
			Rejected: ksRejected || psiRejected,
		}
		if o != nil {
			o.Histogram(obs.MetricMonitorKSStat, obs.PipelineBuckets).Observe(stat)
			o.Histogram(obs.MetricMonitorPSI, obs.PipelineBuckets).Observe(psi)
		}
	}
	minFraction := d.cfg.MinFraction
	if minFraction < 0 {
		minFraction = 0 // sentinel: a single rejecting feature suffices
	}
	need := int(math.Ceil(minFraction * float64(width)))
	if need < 1 {
		need = 1
	}
	rep.Drifted = len(rep.DriftedFeatures) >= need || psiHits >= need
	if o != nil {
		o.Counter(obs.MetricMonitorChecks).Inc()
		if rep.Drifted {
			o.Counter(obs.MetricMonitorDrifts).Inc()
		}
	}
	return rep, nil
}

// KSTwoSample computes the two-sample Kolmogorov–Smirnov statistic (the
// sup-distance between the empirical CDFs) and its p-value via the
// asymptotic Kolmogorov distribution. refSorted must be ascending; sample
// may be in any order.
func KSTwoSample(refSorted, sample []float64) (stat, p float64) {
	n := float64(len(refSorted))
	m := float64(len(sample))
	if n == 0 || m == 0 {
		return 0, 1
	}
	s := sortedCopy(sample)
	// Walk both empirical CDFs. The CDF gap is only measured after both
	// walks consume every copy of the current value, so tied observations
	// (including between the two samples) never inflate the statistic.
	var i, j int
	var dMax float64
	for i < len(refSorted) && j < len(s) {
		v := refSorted[i]
		if s[j] < v {
			v = s[j]
		}
		for i < len(refSorted) && refSorted[i] == v {
			i++
		}
		for j < len(s) && s[j] == v {
			j++
		}
		diff := math.Abs(float64(i)/n - float64(j)/m)
		if diff > dMax {
			dMax = diff
		}
	}
	en := math.Sqrt(n * m / (n + m))
	lambda := (en + 0.12 + 0.11/en) * dMax
	return dMax, kolmogorovQ(lambda)
}

// kolmogorovQ is the survival function of the Kolmogorov distribution.
func kolmogorovQ(lambda float64) float64 {
	if lambda <= 0 {
		return 1
	}
	var sum float64
	sign := 1.0
	for k := 1; k <= 100; k++ {
		term := sign * math.Exp(-2*lambda*lambda*float64(k)*float64(k))
		sum += term
		if math.Abs(term) < 1e-12 {
			break
		}
		sign = -sign
	}
	q := 2 * sum
	if q < 0 {
		return 0
	}
	if q > 1 {
		return 1
	}
	return q
}

// PSI computes the population stability index between two bin-proportion
// vectors (same binning). Empty bins are floored to avoid infinities.
func PSI(ref, cur []float64) float64 {
	const floor = 1e-4
	var psi float64
	for b := range ref {
		r := math.Max(ref[b], floor)
		c := math.Max(cur[b], floor)
		psi += (c - r) * math.Log(c/r)
	}
	return psi
}

// binProportions buckets ascending values by the given edges.
func binProportions(sorted []float64, edges []float64) []float64 {
	props := make([]float64, len(edges)+1)
	if len(sorted) == 0 {
		return props
	}
	b := 0
	for _, v := range sorted {
		for b < len(edges) && v > edges[b] {
			b++
		}
		props[b]++
	}
	inv := 1 / float64(len(sorted))
	for i := range props {
		props[i] *= inv
	}
	return props
}

func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}
