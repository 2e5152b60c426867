package stats

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
)

// GMM is a diagonal-covariance Gaussian mixture model fitted with EM.
// The paper uses a GMM to split the 5GIPC dataset into source and target
// domains (two clusters in §IV-B, three clusters in §VI-F); diagonal
// covariances are sufficient for that clustering role and keep EM stable in
// the 100+-dimensional telemetry space.
type GMM struct {
	K int // number of components

	weights []float64   // [K]
	means   [][]float64 // [K][D]
	vars    [][]float64 // [K][D]
	fitted  bool
}

// ErrGMMNotFitted is returned when Predict is called before Fit.
var ErrGMMNotFitted = errors.New("stats: gmm not fitted")

// GMMConfig controls EM fitting.
type GMMConfig struct {
	K        int     // number of components (required, >= 1)
	MaxIter  int     // EM iterations (default 100)
	Tol      float64 // log-likelihood convergence tolerance (default 1e-6)
	Seed     int64   // RNG seed for k-means++ style initialization
	MinVar   float64 // variance floor (default 1e-6)
	Restarts int     // number of random restarts, best LL wins (default 1)
}

// FitGMM fits a diagonal GMM to the rows of x.
func FitGMM(x [][]float64, cfg GMMConfig) (*GMM, error) {
	if cfg.K < 1 {
		return nil, fmt.Errorf("stats: gmm needs K >= 1, got %d", cfg.K)
	}
	if len(x) < cfg.K {
		return nil, fmt.Errorf("stats: gmm needs >= K samples (%d < %d)", len(x), cfg.K)
	}
	if cfg.MaxIter == 0 {
		cfg.MaxIter = 100
	}
	if cfg.Tol == 0 {
		cfg.Tol = 1e-6
	}
	if cfg.MinVar == 0 {
		cfg.MinVar = 1e-6
	}
	if cfg.Restarts == 0 {
		cfg.Restarts = 1
	}

	var best *GMM
	bestLL := math.Inf(-1)
	for r := 0; r < cfg.Restarts; r++ {
		rng := rand.New(rand.NewSource(cfg.Seed + int64(r)*7919))
		g, ll, err := fitGMMOnce(x, cfg, rng)
		if err != nil {
			return nil, err
		}
		if ll > bestLL {
			bestLL = ll
			best = g
		}
	}
	return best, nil
}

func fitGMMOnce(x [][]float64, cfg GMMConfig, rng *rand.Rand) (*GMM, float64, error) {
	n := len(x)
	d := len(x[0])
	g := &GMM{K: cfg.K}
	g.weights = make([]float64, cfg.K)
	g.means = make([][]float64, cfg.K)
	g.vars = make([][]float64, cfg.K)

	// Global variance for initialization.
	globalVar := make([]float64, d)
	col := make([]float64, n)
	for j := 0; j < d; j++ {
		for i := range x {
			col[i] = x[i][j]
		}
		globalVar[j] = math.Max(Variance(col), cfg.MinVar)
	}

	// k-means++ style mean seeding.
	centers := kmeansPPInit(x, cfg.K, rng)
	for k := 0; k < cfg.K; k++ {
		g.weights[k] = 1 / float64(cfg.K)
		g.means[k] = append([]float64(nil), centers[k]...)
		g.vars[k] = append([]float64(nil), globalVar...)
	}

	resp := make([][]float64, n)
	for i := range resp {
		resp[i] = make([]float64, cfg.K)
	}
	prevLL := math.Inf(-1)
	var ll float64
	for iter := 0; iter < cfg.MaxIter; iter++ {
		// E-step: responsibilities via log-sum-exp.
		ll = 0
		for i, row := range x {
			maxLog := math.Inf(-1)
			for k := 0; k < cfg.K; k++ {
				lp := math.Log(g.weights[k]) + g.logGaussian(k, row)
				resp[i][k] = lp
				if lp > maxLog {
					maxLog = lp
				}
			}
			var sum float64
			for k := 0; k < cfg.K; k++ {
				resp[i][k] = math.Exp(resp[i][k] - maxLog)
				sum += resp[i][k]
			}
			for k := 0; k < cfg.K; k++ {
				resp[i][k] /= sum
			}
			ll += maxLog + math.Log(sum)
		}
		// M-step.
		for k := 0; k < cfg.K; k++ {
			var nk float64
			for i := 0; i < n; i++ {
				nk += resp[i][k]
			}
			if nk < 1e-10 {
				// Dead component: re-seed at a random point.
				g.means[k] = append([]float64(nil), x[rng.Intn(n)]...)
				g.vars[k] = append([]float64(nil), globalVar...)
				g.weights[k] = 1e-6
				continue
			}
			g.weights[k] = nk / float64(n)
			mean := make([]float64, d)
			for i, row := range x {
				w := resp[i][k]
				for j, v := range row {
					mean[j] += w * v
				}
			}
			for j := range mean {
				mean[j] /= nk
			}
			g.means[k] = mean
			vr := make([]float64, d)
			for i, row := range x {
				w := resp[i][k]
				for j, v := range row {
					dv := v - mean[j]
					vr[j] += w * dv * dv
				}
			}
			for j := range vr {
				vr[j] = math.Max(vr[j]/nk, cfg.MinVar)
			}
			g.vars[k] = vr
		}
		// Renormalize weights (dead-component handling can unbalance them).
		var wsum float64
		for _, w := range g.weights {
			wsum += w
		}
		for k := range g.weights {
			g.weights[k] /= wsum
		}
		if math.Abs(ll-prevLL) < cfg.Tol*(1+math.Abs(ll)) {
			break
		}
		prevLL = ll
	}
	g.fitted = true
	return g, ll, nil
}

func kmeansPPInit(x [][]float64, k int, rng *rand.Rand) [][]float64 {
	n := len(x)
	centers := make([][]float64, 0, k)
	centers = append(centers, x[rng.Intn(n)])
	dists := make([]float64, n)
	for len(centers) < k {
		var total float64
		for i, row := range x {
			best := math.Inf(1)
			for _, c := range centers {
				d := sqDist(row, c)
				if d < best {
					best = d
				}
			}
			dists[i] = best
			total += best
		}
		if total == 0 {
			centers = append(centers, x[rng.Intn(n)])
			continue
		}
		target := rng.Float64() * total
		var cum float64
		chosen := n - 1
		for i, d := range dists {
			cum += d
			if cum >= target {
				chosen = i
				break
			}
		}
		centers = append(centers, x[chosen])
	}
	return centers
}

func sqDist(a, b []float64) float64 {
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}

func (g *GMM) logGaussian(k int, x []float64) float64 {
	mean := g.means[k]
	vr := g.vars[k]
	lp := -0.5 * float64(len(x)) * math.Log(2*math.Pi)
	for j, v := range x {
		d := v - mean[j]
		lp -= 0.5 * (math.Log(vr[j]) + d*d/vr[j])
	}
	return lp
}

// Predict returns the most likely component index for each row of x.
func (g *GMM) Predict(x [][]float64) ([]int, error) {
	if !g.fitted {
		return nil, ErrGMMNotFitted
	}
	out := make([]int, len(x))
	for i, row := range x {
		best := math.Inf(-1)
		arg := 0
		for k := 0; k < g.K; k++ {
			lp := math.Log(g.weights[k]) + g.logGaussian(k, row)
			if lp > best {
				best = lp
				arg = k
			}
		}
		out[i] = arg
	}
	return out, nil
}
