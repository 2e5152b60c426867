package experiments

import (
	"math"
	"math/rand"

	"netdrift/internal/baselines"
	"netdrift/internal/causal"
	"netdrift/internal/metrics"
	"netdrift/internal/models"
)

// VariantCountResult reports how many domain-variant features FS (and the
// conservative ICD baseline) identify per shot count, plus the ground-truth
// count from the synthetic generator.
type VariantCountResult struct {
	Dataset     string
	Shots       []int
	FSCounts    map[int]float64 // mean FS variant count per shot
	ICDCounts   map[int]float64 // mean ICD variant count per shot
	TrueVariant int
}

// countsArm is the "FS identified 35/68/75 variant features ..."
// sensitivity sweep: per cell, the variant counts of FS and of the
// conservative ICD baseline on the cell's support draw.
var countsArm = &arm{
	name: "variant counts",
	cols: []string{"FS", "ICD"},
	cell: func(r *gridRun, c cell) ([]float64, error) {
		pair := r.pair
		n, err := VariantCount(pair.Source, c.support, causal.FNodeConfig{Workers: 1, Obs: r.cfg.Obs})
		if err != nil {
			return nil, err
		}
		icdN, err := baselines.ICD{}.VariantCount(pair.Source, c.support)
		if err != nil {
			return nil, err
		}
		progress(r.notify, "%s shot=%d rep=%d FS=%d ICD=%d (truth %d)",
			r.cfg.Dataset, c.shot, c.rep, n, icdN, len(pair.TrueVariant))
		return []float64{float64(n), float64(icdN)}, nil
	},
}

// VariantCounts is the variant-count view: each shot's mean counts.
func (g *Grid) VariantCounts() *VariantCountResult {
	res := &VariantCountResult{
		Dataset:     g.Dataset,
		Shots:       g.Shots,
		FSCounts:    make(map[int]float64),
		ICDCounts:   make(map[int]float64),
		TrueVariant: g.trueVariant,
	}
	for _, s := range g.Shots {
		res.FSCounts[s] = mean(g.values(countsArm.name, "FS", s))
		res.ICDCounts[s] = mean(g.values(countsArm.name, "ICD", s))
	}
	return res
}

// VarianceResult reports the spread of FS+GAN/TNet performance across
// the few-shot draws at one shot (paper: within ±2.6 F1).
type VarianceResult struct {
	Dataset string
	Shot    int
	Mean    float64
	StdDev  float64
	Values  []float64
}

// Variance is the variance view: per shot, the FS+GAN/TNet draws (Table
// I's FS+GAN cells when the grid runs Table I) and their sample stdev.
func (g *Grid) Variance() []VarianceResult {
	var out []VarianceResult
	for _, shot := range g.Shots {
		vals := g.values(fsGAN.name, "TNet", shot)
		m := mean(vals)
		var ss float64
		for _, v := range vals {
			ss += (v - m) * (v - m)
		}
		sd := 0.0
		if len(vals) > 1 {
			sd = math.Sqrt(ss / float64(len(vals)-1))
		}
		out = append(out, VarianceResult{Dataset: g.Dataset, Shot: shot, Mean: m, StdDev: sd, Values: vals})
	}
	return out
}

// InDomainResult reports SrcOnly performance when train and test both come
// from the source domain (§VI-B(a)): high scores prove the cross-domain
// collapse is caused by drift, not model capacity.
type InDomainResult struct {
	Dataset string
	F1      map[string]float64 // per classifier
}

// RunInDomain cross-validates SrcOnly within the source domain.
func RunInDomain(cfg Config) (*InDomainResult, error) {
	if cfg.Scale == (Scale{}) {
		cfg.Scale = BenchScale
	}
	pair, err := MakePair(cfg.Dataset, cfg.Scale, cfg.Seed)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed + 1))
	train, test, err := pair.Source.StratifiedSplit(0.8, false, rng)
	if err != nil {
		return nil, err
	}
	res := &InDomainResult{Dataset: cfg.Dataset, F1: make(map[string]float64)}
	for _, kind := range models.AllKinds() {
		clf, err := models.New(kind, models.Options{
			Seed: cfg.Seed, Epochs: cfg.Scale.ClassifierEpochs, Trees: cfg.Scale.Trees,
		})
		if err != nil {
			return nil, err
		}
		end := baselines.Observe(cfg.Obs, baselines.SrcOnly{}.Name())
		pred, err := baselines.SrcOnly{}.Predict(train, nil, test, clf)
		end()
		if err != nil {
			return nil, err
		}
		f1, err := metrics.MacroF1Score(test.Y, pred, pair.NumClasses)
		if err != nil {
			return nil, err
		}
		res.F1[kind.String()] = f1
		progress(cfg.Progress, "%s in-domain %s F1=%.1f", cfg.Dataset, kind, f1)
	}
	return res, nil
}
