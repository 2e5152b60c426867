package experiments

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"

	"netdrift/internal/dataset"
	"netdrift/internal/obs"
	"netdrift/internal/par"
)

// Config drives one draw grid, and through it every table and analysis of
// §VI.
type Config struct {
	Dataset string // "5gc" or "5gipc"; Table III ignores it
	Shots   []int  // default {1, 5, 10}
	Repeats int    // few-shot draws per shot; default 3
	Seed    int64
	Scale   Scale // default BenchScale
	// Methods filters Table I's roster by method name; empty runs all of it.
	Methods []string
	// Workers bounds concurrent evaluation of the independent (rep, shot,
	// arm) cells. <= 0 means runtime.GOMAXPROCS(0); 1 forces the exact
	// sequential path. Every cell owns its seeded RNGs and the records
	// merge in cell order, so the result is bit-identical for every value
	// (see DESIGN.md, "Determinism contract"). Only Progress-line
	// interleaving may differ.
	Workers int
	// TrainShards, when > 1, runs every "ours" arm's reconstructor training
	// with that many deterministic gradient shards per minibatch (see
	// core.AdapterConfig.TrainShards). Part of the reproducibility key:
	// changing it changes the trained bits; Workers never does.
	TrainShards int
	// Progress, when non-nil, receives one line per recorded score. It may
	// be called from multiple goroutines (never concurrently) when
	// Workers != 1.
	Progress func(string)
	// Obs, when non-nil, instruments the run: per-method predict timers and
	// the adapter pipeline metrics of the "ours" arms.
	Obs *obs.Observer
}

// Table1Config is Config under the name Table I's callers know it by.
type Table1Config = Config

// Draw is one value the grid recorded: what one arm wrote into one column
// in the cell of one support draw.
type Draw struct {
	Pair   int64   `json:"pair"` // the seed the dataset pair was generated from
	Rep    int     `json:"rep"`
	Shot   int     `json:"shot"`
	Arm    string  `json:"arm"`
	Column string  `json:"column"`
	Value  float64 `json:"value"`
}

// Grid is one run of the draw grid. Draws holds every cell's values in
// cell order, rep-major over (rep, shot, arm) with each arm's columns in
// its own order. The tables are views of it: Table1, Table2, Table3,
// VariantCounts and Variance.
type Grid struct {
	Dataset string
	Shots   []int
	Repeats int
	Draws   []Draw

	arms        []*arm
	trueVariant int
}

// arm is one method of the grid and the columns its cells fill.
type arm struct {
	name     string
	category string   // Table I's category column
	table1   bool     // a row of the Table I view
	multi    bool     // reads Table III's 2-target split instead of the pair
	cols     []string // a cell returns one value per column, in this order
	cell     func(r *gridRun, c cell) ([]float64, error)
}

// cell is one (rep, shot, arm) of the grid. The arms of a (rep, shot)
// share its support draw and its seed.
type cell struct {
	rep, shot int
	seed      int64
	support   *dataset.Dataset
	arm       *arm
}

// gridRun is what every cell reads: the config and the data, built once.
type gridRun struct {
	cfg    Config
	pair   *Pair
	multi  *dataset.DriftedMulti
	notify func(string)
}

// RunGrid runs, on one grid, every arm the named experiments need:
// "table1" (Table I's roster, filtered by cfg.Methods), "table2" (the
// reconstruction ablation), "table3" (multi-target), "sensitivity" (the
// variant counts) and "variance" (FS+GAN/TNet per draw). An arm that two
// experiments need runs once: with "table1", Table II's GAN row and the
// variance read Table I's FS+GAN cells.
func RunGrid(cfg Config, exps ...string) (*Grid, error) {
	if len(cfg.Shots) == 0 {
		cfg.Shots = []int{1, 5, 10}
	}
	if cfg.Repeats == 0 {
		cfg.Repeats = 3
	}
	if cfg.Scale == (Scale{}) {
		cfg.Scale = BenchScale
	}
	arms, err := gridArms(cfg, exps)
	if err != nil {
		return nil, err
	}
	workers := par.Resolve(cfg.Workers)
	r := &gridRun{cfg: cfg, notify: lockedProgress(cfg.Progress, workers)}
	g := &Grid{Shots: append([]int(nil), cfg.Shots...), Repeats: cfg.Repeats, arms: arms}
	if slices.ContainsFunc(arms, func(a *arm) bool { return !a.multi }) {
		if r.pair, err = MakePair(cfg.Dataset, cfg.Scale, cfg.Seed); err != nil {
			return nil, err
		}
		g.Dataset = cfg.Dataset
		g.trueVariant = len(r.pair.TrueVariant)
	}
	if slices.ContainsFunc(arms, func(a *arm) bool { return a.multi }) {
		if r.multi, err = multiTarget(cfg.Scale, cfg.Seed); err != nil {
			return nil, err
		}
	}

	// Support draws stay sequential, each from its own seeded RNG.
	var cells []cell
	for rep := 0; rep < cfg.Repeats; rep++ {
		for _, shot := range cfg.Shots {
			c := cell{rep: rep, shot: shot, seed: cfg.Seed + int64(rep)*7919 + int64(shot)*101}
			if r.pair != nil {
				if c.support, err = r.pair.SupportDraw(cfg.Seed, rep, shot); err != nil {
					return nil, err
				}
			}
			for _, a := range arms {
				c.arm = a
				cells = append(cells, c)
			}
		}
	}
	vals := make([][]float64, len(cells))
	if err := par.ForEachErr(workers, len(cells), func(ci int) (err error) {
		vals[ci], err = cells[ci].arm.cell(r, cells[ci])
		return err
	}); err != nil {
		return nil, err
	}
	for ci, c := range cells {
		for j, col := range c.arm.cols {
			g.Draws = append(g.Draws, Draw{
				Pair: cfg.Seed, Rep: c.rep, Shot: c.shot, Arm: c.arm.name, Column: col, Value: vals[ci][j],
			})
		}
	}
	return g, nil
}

// SupportDraw draws the few-shot target support of the grid's (rep, shot)
// cell for a pair made from seed: every arm of that cell reads this draw.
func (p *Pair) SupportDraw(seed int64, rep, shot int) (*dataset.Dataset, error) {
	rng := rand.New(rand.NewSource(seed + int64(rep)*977 + int64(shot)))
	support, _, err := p.TargetTrain.FewShot(shot, p.UseGroups, rng)
	return support, err
}

// gridArms lists the arms exps need, Table I's first: its FS+GAN arm fills
// every classifier column, so it stands in for the TNet-only FS+GAN arm of
// Table II and the variance.
func gridArms(cfg Config, exps []string) ([]*arm, error) {
	order := []string{"table1", "table2", "variance", "sensitivity", "table3"}
	for _, exp := range exps {
		if !slices.Contains(order, exp) {
			return nil, fmt.Errorf("experiments: unknown experiment %q", exp)
		}
	}
	var arms []*arm
	add := func(a *arm) {
		if !slices.ContainsFunc(arms, func(b *arm) bool { return b.name == a.name }) {
			arms = append(arms, a)
		}
	}
	for _, exp := range order {
		if !slices.Contains(exps, exp) {
			continue
		}
		switch exp {
		case "table1":
			roster := filterRoster(table1Roster(), cfg.Methods)
			if len(roster) == 0 {
				return nil, fmt.Errorf("experiments: no methods match filter %v", cfg.Methods)
			}
			for _, spec := range roster {
				add(methodArm(spec, cfg.Scale, allKinds, true))
			}
		case "table2":
			for _, k := range table2Kinds {
				add(methodArm(reconSpec(k), cfg.Scale, tnetOnly, false))
			}
		case "variance":
			add(methodArm(fsGAN, cfg.Scale, tnetOnly, false))
		case "sensitivity":
			add(countsArm)
		case "table3":
			add(table3Arm)
		}
	}
	if len(arms) == 0 {
		return nil, fmt.Errorf("experiments: no experiment named")
	}
	return arms, nil
}

// values returns an arm's draws in one column, in record order, at one
// shot, or at every shot when shot is 0. That order is rep-major, the
// order the sequential loops summed in, so every mean keeps its bits.
func (g *Grid) values(arm, col string, shot int) []float64 {
	var out []float64
	for _, d := range g.Draws {
		if d.Arm == arm && d.Column == col && (shot == 0 || d.Shot == shot) {
			out = append(out, d.Value)
		}
	}
	return out
}

func progress(fn func(string), format string, args ...any) {
	if fn != nil {
		fn(fmt.Sprintf(format, args...))
	}
}

// lockedProgress wraps a Progress callback with a mutex so concurrent
// experiment cells never invoke it at the same time. With one worker the
// callback is returned untouched.
func lockedProgress(fn func(string), workers int) func(string) {
	if fn == nil || workers <= 1 {
		return fn
	}
	var mu sync.Mutex
	return func(s string) {
		mu.Lock()
		defer mu.Unlock()
		fn(s)
	}
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, v := range xs {
		s += v
	}
	return s / float64(len(xs))
}
