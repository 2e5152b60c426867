package experiments

import (
	"fmt"
	"math"
	"math/rand"

	"netdrift/internal/baselines"
	"netdrift/internal/causal"
	"netdrift/internal/dataset"
	"netdrift/internal/metrics"
	"netdrift/internal/models"
	"netdrift/internal/obs"
	"netdrift/internal/par"
)

// SensitivityConfig drives the §VI-C analyses.
type SensitivityConfig struct {
	Dataset string
	Shots   []int // default {1, 5, 10}
	Repeats int   // default 3
	Seed    int64
	Scale   Scale
	// Workers bounds concurrent evaluation of independent (shot, rep)
	// cells; <= 0 means all cores, 1 forces the sequential path, and
	// results are bit-identical for every value.
	Workers  int
	Progress func(string)
	// Obs, when non-nil, instruments the FS searches and adapter runs.
	Obs *obs.Observer
}

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

// RunVariantCounts reproduces the "FS identified 35/68/75 variant
// features ..." sensitivity sweep.
func RunVariantCounts(cfg SensitivityConfig) (*VariantCountResult, error) {
	if len(cfg.Shots) == 0 {
		cfg.Shots = []int{1, 5, 10}
	}
	if cfg.Repeats == 0 {
		cfg.Repeats = 3
	}
	if cfg.Scale == (Scale{}) {
		cfg.Scale = BenchScale
	}
	pair, err := MakePair(cfg.Dataset, cfg.Scale, cfg.Seed)
	if err != nil {
		return nil, err
	}
	trueCount, err := trueVariantCount(cfg.Dataset, cfg.Scale, cfg.Seed)
	if err != nil {
		return nil, err
	}
	res := &VariantCountResult{
		Dataset:     cfg.Dataset,
		Shots:       append([]int(nil), cfg.Shots...),
		FSCounts:    make(map[int]float64),
		ICDCounts:   make(map[int]float64),
		TrueVariant: trueCount,
	}
	// Shot-major cell grid, matching the historical loop nesting.
	type vcCell struct{ shot, rep int }
	type vcOut struct{ fs, icd float64 }
	var cells []vcCell
	for _, shot := range cfg.Shots {
		for rep := 0; rep < cfg.Repeats; rep++ {
			cells = append(cells, vcCell{shot, rep})
		}
	}
	workers := par.Resolve(cfg.Workers)
	notify := lockedProgress(cfg.Progress, workers)
	outs := make([]vcOut, len(cells))
	if err := par.ForEachErr(workers, len(cells), func(ci int) error {
		c := cells[ci]
		drawRng := rand.New(rand.NewSource(cfg.Seed + int64(c.rep)*977 + int64(c.shot)))
		support, _, err := pair.TargetTrain.FewShot(c.shot, pair.UseGroups, drawRng)
		if err != nil {
			return err
		}
		n, err := VariantCount(pair.Source, support, causal.FNodeConfig{Workers: 1, Obs: cfg.Obs})
		if err != nil {
			return err
		}
		icdN, err := baselines.ICD{}.VariantCount(pair.Source, support)
		if err != nil {
			return err
		}
		outs[ci] = vcOut{fs: float64(n), icd: float64(icdN)}
		progress(notify, "%s shot=%d rep=%d FS=%d ICD=%d (truth %d)",
			cfg.Dataset, c.shot, c.rep, n, icdN, trueCount)
		return nil
	}); err != nil {
		return nil, err
	}
	for _, shot := range cfg.Shots {
		var fsVals, icdVals []float64
		for ci, c := range cells {
			if c.shot == shot {
				fsVals = append(fsVals, outs[ci].fs)
				icdVals = append(icdVals, outs[ci].icd)
			}
		}
		res.FSCounts[shot] = mean(fsVals)
		res.ICDCounts[shot] = mean(icdVals)
	}
	return res, nil
}

func trueVariantCount(name string, sc Scale, seed int64) (int, error) {
	switch name {
	case "5gc":
		d, err := dataset.Synthetic5GC(dataset.FiveGCConfig{
			Seed: seed, SourceSamples: 32, TargetTrainPool: 32, TargetTestSamples: 32,
		})
		if err != nil {
			return 0, err
		}
		return len(d.TrueVariant), nil
	case "5gipc":
		d, err := dataset.Synthetic5GIPC(dataset.FiveGIPCConfig{
			Seed: seed, SourceNormal: 50, SourceFaults: [4]int{8, 8, 8, 8},
			TargetNormal: 20, TargetFaults: [4]int{4, 4, 4, 4}, TargetTrainPerGroup: 2,
		})
		if err != nil {
			return 0, err
		}
		return len(d.Targets[0].TrueVariant), nil
	default:
		return 0, fmt.Errorf("experiments: unknown dataset %q", name)
	}
}

// VarianceResult reports the spread of FS+GAN performance across few-shot
// draws (paper: within ±2.6 F1).
type VarianceResult struct {
	Dataset string
	Shot    int
	Mean    float64
	StdDev  float64
	Values  []float64
}

// RunVariance measures FS+GAN (TNet) variance across random support draws.
func RunVariance(cfg SensitivityConfig, shot int) (*VarianceResult, error) {
	if cfg.Repeats == 0 {
		cfg.Repeats = 5
	}
	if cfg.Scale == (Scale{}) {
		cfg.Scale = BenchScale
	}
	pair, err := MakePair(cfg.Dataset, cfg.Scale, cfg.Seed)
	if err != nil {
		return nil, err
	}
	workers := par.Resolve(cfg.Workers)
	notify := lockedProgress(cfg.Progress, workers)
	vals := make([]float64, cfg.Repeats)
	if err := par.ForEachErr(workers, cfg.Repeats, func(rep int) error {
		drawRng := rand.New(rand.NewSource(cfg.Seed + int64(rep)*977))
		support, _, err := pair.TargetTrain.FewShot(shot, pair.UseGroups, drawRng)
		if err != nil {
			return err
		}
		seed := cfg.Seed + int64(rep)*7919
		m := NewFSGAN(cfg.Scale.GANEpochs, seed)
		m.Cfg.Obs = cfg.Obs
		m.Cfg.Workers = 1 // the draw grid owns the parallelism
		clf := models.NewTNet(models.Options{Seed: seed, Epochs: cfg.Scale.ClassifierEpochs})
		pred, err := m.Predict(pair.Source, support, pair.TargetTest, clf)
		if err != nil {
			return err
		}
		f1, err := metrics.MacroF1Score(pair.TargetTest.Y, pred, pair.NumClasses)
		if err != nil {
			return err
		}
		vals[rep] = f1
		progress(notify, "%s variance draw %d: F1=%.1f", cfg.Dataset, rep, f1)
		return nil
	}); err != nil {
		return nil, err
	}
	m := mean(vals)
	var ss float64
	for _, v := range vals {
		ss += (v - m) * (v - m)
	}
	sd := 0.0
	if len(vals) > 1 {
		sd = math.Sqrt(ss / float64(len(vals)-1))
	}
	return &VarianceResult{Dataset: cfg.Dataset, Shot: shot, Mean: m, StdDev: sd, Values: vals}, nil
}

// InDomainResult reports SrcOnly performance when train and test both come
// from the source domain (§VI-B(a)): high scores prove the cross-domain
// collapse is caused by drift, not model capacity.
type InDomainResult struct {
	Dataset string
	F1      map[string]float64 // per classifier
}

// RunInDomain cross-validates SrcOnly within the source domain.
func RunInDomain(cfg SensitivityConfig) (*InDomainResult, error) {
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
