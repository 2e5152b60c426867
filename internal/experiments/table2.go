package experiments

import (
	"netdrift/internal/baselines"
	"netdrift/internal/core"
)

// Table2Result holds Scores[reconstruction][shot] mean F1 with TNet: the
// reconstruction-strategy ablation, FS+GAN vs FS+NoCond vs FS+VAE vs
// FS+VanillaAE.
type Table2Result struct {
	Dataset string
	Shots   []int
	Kinds   []core.ReconKind
	Scores  map[core.ReconKind]map[int]float64
	Repeats int
}

// table2Kinds are Table II's rows, in order.
var table2Kinds = []core.ReconKind{core.ReconGAN, core.ReconGANNoCond, core.ReconVAE, core.ReconVanillaAE}

// reconSpec is a Table II row's method. The GAN row is Table I's FS+GAN:
// the same adapter config, seeds and TNet.
func reconSpec(k core.ReconKind) methodSpec {
	if k == core.ReconGAN {
		return fsGAN
	}
	return methodSpec{name: "FS+" + k.String(), build: func(sc Scale, seed int64) baselines.Method {
		return NewFSRecon(k, sc.GANEpochs, seed)
	}}
}

// Table2 is the Table II view: each reconstructor's TNet draws, averaged.
func (g *Grid) Table2() *Table2Result {
	res := &Table2Result{
		Dataset: g.Dataset,
		Shots:   g.Shots,
		Kinds:   table2Kinds,
		Scores:  make(map[core.ReconKind]map[int]float64, len(table2Kinds)),
		Repeats: g.Repeats,
	}
	for _, k := range table2Kinds {
		res.Scores[k] = make(map[int]float64)
		for _, s := range g.Shots {
			res.Scores[k][s] = mean(g.values(reconSpec(k).name, "TNet", s))
		}
	}
	return res
}
