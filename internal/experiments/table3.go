package experiments

import (
	"fmt"
	"math/rand"

	"netdrift/internal/core"
	"netdrift/internal/dataset"
	"netdrift/internal/metrics"
	"netdrift/internal/models"
)

// Table3Result holds Scores[adapter][target][shot]: F1 of the shared
// source-trained TNet on target `target` when DA is performed by
// FS+GAN_{adapter+1}.
type Table3Result struct {
	Shots   []int
	Scores  [2][2]map[int]float64
	Repeats int
	// CommonVariantFraction is |V1 ∩ V2| / |V1 ∪ V2| averaged over runs —
	// the paper's observation that most variant features are shared.
	CommonVariantFraction float64
}

// multiTarget is Table III's dataset (§VI-F): the synthetic 5GIPC split
// into Source, Target_1 and Target_2.
func multiTarget(sc Scale, seed int64) (*dataset.DriftedMulti, error) {
	return dataset.Synthetic5GIPC(dataset.FiveGIPCConfig{
		Seed:                seed,
		SourceNormal:        sc.IPCSourceNormal,
		SourceFaults:        sc.IPCSourceFaults,
		TargetNormal:        sc.IPCTargetNormal,
		TargetFaults:        sc.IPCTargetFaults,
		TargetTrainPerGroup: sc.IPCTrainPool,
		NumTargets:          2,
	})
}

// table3Arm is Table III's one arm: per cell, a single TNet
// fault-detection model trained only on Source, with two FS+GAN adapters
// (one per target domain) cross-evaluated on both targets, and the Jaccard
// of the two adapters' variant sets.
var table3Arm = &arm{
	name:  "multi-target",
	multi: true,
	cols:  []string{"FS+GAN_1/T1", "FS+GAN_1/T2", "FS+GAN_2/T1", "FS+GAN_2/T2", "Jaccard"},
	cell:  (*gridRun).table3,
}

// table3 runs one Table III cell. Each adapter draws its own support from
// its target, seeded from the cell seed, so the arm needs no pair.
func (r *gridRun) table3(c cell) ([]float64, error) {
	cfg, d := r.cfg, r.multi
	// One shared TNet trained exclusively on scaled source data.
	var clf *models.TNet
	var adapters [2]*core.Adapter
	for a := 0; a < 2; a++ {
		drawRng := rand.New(rand.NewSource(c.seed + int64(a)*13))
		support, _, err := d.Targets[a].Train.FewShot(c.shot, true, drawRng)
		if err != nil {
			return nil, err
		}
		ad := core.NewAdapter(core.AdapterConfig{
			Mode:        core.ModeFSRecon,
			Recon:       core.ReconGAN,
			GAN:         core.GANConfig{Epochs: cfg.Scale.GANEpochs},
			Seed:        c.seed + int64(a),
			Workers:     1, // the cell grid owns the parallelism
			TrainShards: cfg.TrainShards,
			Obs:         cfg.Obs,
		})
		if err := ad.Fit(d.Source, support); err != nil {
			return nil, fmt.Errorf("experiments: table3 adapter %d: %w", a+1, err)
		}
		adapters[a] = ad
		if a == 0 {
			train, err := ad.TrainingData(d.Source)
			if err != nil {
				return nil, err
			}
			clf = models.NewTNet(models.Options{Seed: c.seed, Epochs: cfg.Scale.ClassifierEpochs})
			if err := clf.Fit(train.X, train.Y, 2); err != nil {
				return nil, fmt.Errorf("experiments: table3 tnet: %w", err)
			}
		}
	}
	var out []float64
	for a := 0; a < 2; a++ {
		for t := 0; t < 2; t++ {
			aligned, err := adapters[a].TransformTarget(d.Targets[t].Test.X)
			if err != nil {
				return nil, err
			}
			pred, err := models.PredictClasses(clf, aligned)
			if err != nil {
				return nil, err
			}
			f1, err := metrics.MacroF1Score(d.Targets[t].Test.Y, pred, 2)
			if err != nil {
				return nil, err
			}
			out = append(out, f1)
			progress(r.notify, "FS+GAN_%d on Target_%d shot=%d rep=%d F1=%.1f",
				a+1, t+1, c.shot, c.rep, f1)
		}
	}
	return append(out, jaccard(adapters[0].VariantFeatures(), adapters[1].VariantFeatures())), nil
}

// Table3 is the Table III view. The Jaccard averages every cell, rep-major.
func (g *Grid) Table3() *Table3Result {
	res := &Table3Result{Shots: g.Shots, Repeats: g.Repeats}
	for a := 0; a < 2; a++ {
		for t := 0; t < 2; t++ {
			res.Scores[a][t] = make(map[int]float64)
			for _, s := range g.Shots {
				res.Scores[a][t][s] = mean(g.values(table3Arm.name, table3Arm.cols[2*a+t], s))
			}
		}
	}
	res.CommonVariantFraction = mean(g.values(table3Arm.name, "Jaccard", 0))
	return res
}

func jaccard(a, b []int) float64 {
	setA := make(map[int]bool, len(a))
	for _, v := range a {
		setA[v] = true
	}
	var inter int
	setU := make(map[int]bool, len(a)+len(b))
	for _, v := range a {
		setU[v] = true
	}
	for _, v := range b {
		if setA[v] {
			inter++
		}
		setU[v] = true
	}
	if len(setU) == 0 {
		return 0
	}
	return float64(inter) / float64(len(setU))
}
