package scm

import (
	"fmt"
	"math/rand"
)

// RandomConfig controls random model generation.
type RandomConfig struct {
	NumFeatures int     // number of nodes (required)
	MaxParents  int     // maximum parents per node (default 3)
	EdgeProb    float64 // probability a candidate parent edge is kept (default 0.5)
	WeightScale float64 // edge weights drawn U(-w, w) excluding (-0.2w, 0.2w) (default 1)
	NoiseStd    float64 // base noise std per node (default 0.3)
	NoiseJitter float64 // noise std jitter fraction (default 0.5)
	TanhProb    float64 // probability a node uses Tanh instead of Linear (default 0.3)
	Seed        int64
}

// RandomModel generates a random topologically-ordered SCM. Parent
// candidates for node i are drawn from a recent window of earlier nodes,
// which produces the block-correlated structure typical of telemetry
// metrics (per-VNF metric groups influencing each other).
func RandomModel(cfg RandomConfig) (*Model, error) {
	if cfg.NumFeatures <= 0 {
		return nil, fmt.Errorf("scm: NumFeatures %d must be positive", cfg.NumFeatures)
	}
	if cfg.MaxParents == 0 {
		cfg.MaxParents = 3
	}
	if cfg.EdgeProb == 0 {
		cfg.EdgeProb = 0.5
	}
	if cfg.WeightScale == 0 {
		cfg.WeightScale = 1
	}
	if cfg.NoiseStd == 0 {
		cfg.NoiseStd = 0.3
	}
	if cfg.NoiseJitter == 0 {
		cfg.NoiseJitter = 0.5
	}
	if cfg.TanhProb == 0 {
		cfg.TanhProb = 0.3
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	const window = 20 // parent candidates come from the previous `window` nodes
	nodes := make([]Node, cfg.NumFeatures)
	for i := range nodes {
		nd := Node{
			Bias:     rng.NormFloat64() * 0.5,
			NoiseStd: cfg.NoiseStd * (1 + cfg.NoiseJitter*(rng.Float64()*2-1)),
			NL:       Linear,
		}
		if rng.Float64() < cfg.TanhProb {
			nd.NL = Tanh
		}
		lo := i - window
		if lo < 0 {
			lo = 0
		}
		// Sample up to MaxParents distinct candidates from [lo, i).
		candidates := rng.Perm(i - lo)
		for _, off := range candidates {
			if len(nd.Parents) >= cfg.MaxParents {
				break
			}
			if rng.Float64() > cfg.EdgeProb {
				continue
			}
			p := lo + off
			w := (0.2 + 0.8*rng.Float64()) * cfg.WeightScale
			if rng.Float64() < 0.5 {
				w = -w
			}
			nd.Parents = append(nd.Parents, p)
			nd.Weights = append(nd.Weights, w)
		}
		nodes[i] = nd
	}
	m := &Model{Nodes: nodes}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return m, nil
}
