package tree

import (
	"math"
	"math/rand"
)

// ForestConfig configures a random forest classifier.
type ForestConfig struct {
	NumTrees    int // default 100
	MaxDepth    int // default 16
	MinLeaf     int // default 1
	MaxFeatures int // default sqrt(d)
	Seed        int64
}

// RandomForest is a bagged ensemble of CART trees.
type RandomForest struct {
	trees      []*ClassificationTree
	numClasses int
	width      int // trained row width
}

// FitRandomForest trains the ensemble on bootstrap resamples.
func FitRandomForest(x [][]float64, y []int, numClasses int, cfg ForestConfig) (*RandomForest, error) {
	if err := checkFit(x, y, numClasses); err != nil {
		return nil, err
	}
	if cfg.NumTrees == 0 {
		cfg.NumTrees = 100
	}
	if cfg.MaxDepth == 0 {
		cfg.MaxDepth = 16
	}
	if cfg.MinLeaf == 0 {
		cfg.MinLeaf = 1
	}
	d := len(x[0])
	if cfg.MaxFeatures == 0 {
		cfg.MaxFeatures = int(math.Sqrt(float64(d))) + 1
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	rf := &RandomForest{numClasses: numClasses, width: d}
	// One ranking of the columns serves every tree; each tree keeps its
	// bootstrap as row indices into x, drawn as before.
	b := newClassBuilder(x, y, numClasses, ClassTreeConfig{
		MaxDepth:    cfg.MaxDepth,
		MinLeaf:     cfg.MinLeaf,
		MaxFeatures: cfg.MaxFeatures,
		Rng:         rand.New(rand.NewSource(0)),
	})
	n := len(x)
	rows := make([]int, n)
	for t := 0; t < cfg.NumTrees; t++ {
		for i := range rows {
			rows[i] = rng.Intn(n)
		}
		// Reseeding draws what a fresh rand.New(rand.NewSource(seed)) would.
		b.cfg.Rng.Seed(rng.Int63())
		rf.trees = append(rf.trees, b.fit(rows))
	}
	return rf, nil
}

// PredictProba averages the member trees' leaf distributions.
func (rf *RandomForest) PredictProba(x [][]float64) ([][]float64, error) {
	if len(rf.trees) == 0 {
		return nil, ErrNotTrained
	}
	if err := checkRows(x, rf.width); err != nil {
		return nil, err
	}
	inv := 1 / float64(len(rf.trees))
	out := make([][]float64, len(x))
	for i, row := range x {
		p := make([]float64, rf.numClasses)
		for _, t := range rf.trees {
			for c, v := range t.traverse(row).dist {
				p[c] += v
			}
		}
		for c := range p {
			p[c] *= inv
		}
		out[i] = p
	}
	return out, nil
}
