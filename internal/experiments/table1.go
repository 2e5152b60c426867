package experiments

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"

	"netdrift/internal/baselines"
	"netdrift/internal/dataset"
	"netdrift/internal/metrics"
	"netdrift/internal/models"
	"netdrift/internal/obs"
	"netdrift/internal/par"
)

// Pair is one drifted dataset instance for the evaluation protocol.
type Pair struct {
	Name        string
	Source      *dataset.Dataset
	TargetTrain *dataset.Dataset // few-shot candidate pool
	TargetTest  *dataset.Dataset
	UseGroups   bool // stratify few-shot draws by fault type (5GIPC)
	NumClasses  int
}

// MakePair generates the named dataset ("5gc" or "5gipc") at the given
// scale.
func MakePair(name string, sc Scale, seed int64) (*Pair, error) {
	switch name {
	case "5gc":
		d, err := dataset.Synthetic5GC(dataset.FiveGCConfig{
			Seed:              seed,
			SourceSamples:     sc.GCSource,
			TargetTrainPool:   sc.GCTargetPool,
			TargetTestSamples: sc.GCTargetTest,
		})
		if err != nil {
			return nil, err
		}
		return &Pair{
			Name:        name,
			Source:      d.Source,
			TargetTrain: d.TargetTrain,
			TargetTest:  d.TargetTest,
			NumClasses:  16,
		}, nil
	case "5gipc":
		d, err := dataset.Synthetic5GIPC(dataset.FiveGIPCConfig{
			Seed:                seed,
			SourceNormal:        sc.IPCSourceNormal,
			SourceFaults:        sc.IPCSourceFaults,
			TargetNormal:        sc.IPCTargetNormal,
			TargetFaults:        sc.IPCTargetFaults,
			TargetTrainPerGroup: sc.IPCTrainPool,
		})
		if err != nil {
			return nil, err
		}
		return &Pair{
			Name:        name,
			Source:      d.Source,
			TargetTrain: d.Targets[0].Train,
			TargetTest:  d.Targets[0].Test,
			UseGroups:   true,
			NumClasses:  2,
		}, nil
	default:
		return nil, fmt.Errorf("experiments: unknown dataset %q", name)
	}
}

// Table1Config drives the Table I reproduction.
type Table1Config struct {
	Dataset string // "5gc" or "5gipc"
	Shots   []int  // default {1, 5, 10}
	Repeats int    // few-shot redraws averaged per cell; default 3
	Seed    int64
	Scale   Scale
	// Methods filters by method name; empty runs the full Table I roster.
	Methods []string
	// Workers bounds concurrent evaluation of independent (rep, shot,
	// method) cells. <= 0 means runtime.GOMAXPROCS(0); 1 forces the exact
	// sequential path. Every cell owns its seeded RNGs and per-cell scores
	// are merged in deterministic rep-major order, so the result is
	// bit-identical for every value (see DESIGN.md, "Determinism
	// contract"). Only Progress-line interleaving may differ.
	Workers int
	// TrainShards, when > 1, runs the "ours" rows' reconstructor training
	// with that many deterministic gradient shards per minibatch (see
	// core.AdapterConfig.TrainShards). Part of the reproducibility key:
	// changing it changes the trained bits; Workers never does.
	TrainShards int
	// Progress, when non-nil, receives one line per completed cell. It may
	// be called from multiple goroutines (never concurrently) when
	// Workers != 1.
	Progress func(string)
	// Obs, when non-nil, instruments the run: per-method predict timers and
	// the full adapter pipeline metrics for the "ours" rows.
	Obs *obs.Observer
}

// MethodRow is one method's F1 results: Scores[shot][classifier] for
// model-agnostic methods; model-specific methods use the single pseudo
// classifier column "*".
type MethodRow struct {
	Method        string
	ModelAgnostic bool
	Category      string
	Scores        map[int]map[string]float64
}

// Table1Result is the reproduced Table I for one dataset.
type Table1Result struct {
	Dataset     string
	Shots       []int
	Classifiers []string
	Rows        []MethodRow
	Repeats     int
}

// methodSpec builds a fresh method instance per cell (methods carry
// per-cell seeds).
type methodSpec struct {
	name     string
	category string
	build    func(sc Scale, seed int64) baselines.Method
}

func table1Roster() []methodSpec {
	return []methodSpec{
		{"FS+GAN (ours)", "Causal Learning", func(sc Scale, seed int64) baselines.Method {
			return NewFSGAN(sc.GANEpochs, seed)
		}},
		{"FS (ours)", "Causal Learning", func(_ Scale, seed int64) baselines.Method {
			return NewFS(seed)
		}},
		{"CMT", "Causal Learning", func(_ Scale, seed int64) baselines.Method {
			return baselines.CMT{Seed: seed}
		}},
		{"ICD", "Causal Learning", func(_ Scale, seed int64) baselines.Method {
			return baselines.ICD{Seed: seed}
		}},
		{"SrcOnly", "Naive Baselines", func(_ Scale, seed int64) baselines.Method {
			return baselines.SrcOnly{}
		}},
		{"TarOnly", "Naive Baselines", func(_ Scale, seed int64) baselines.Method {
			return baselines.TarOnly{}
		}},
		{"S&T", "Naive Baselines", func(_ Scale, seed int64) baselines.Method {
			return baselines.SAndT{Seed: seed}
		}},
		{"Fine-tune", "Naive Baselines", func(sc Scale, seed int64) baselines.Method {
			return &baselines.FineTune{Seed: seed, PretrainEpochs: sc.FineTuneEpochs, TuneEpochs: 3 * sc.FineTuneEpochs}
		}},
		{"CORAL", "Domain Independent", func(_ Scale, seed int64) baselines.Method {
			return baselines.CORAL{Seed: seed}
		}},
		{"DANN", "Domain Independent", func(sc Scale, seed int64) baselines.Method {
			return &baselines.DANN{Epochs: sc.AdvEpochs, Seed: seed}
		}},
		{"SCL", "Domain Independent", func(sc Scale, seed int64) baselines.Method {
			return baselines.NewSCL(sc.AdvEpochs, seed)
		}},
		{"MatchNet", "Few-shot Learning", func(sc Scale, seed int64) baselines.Method {
			return baselines.NewMatchNet(sc.Episodes, seed)
		}},
		{"ProtoNet", "Few-shot Learning", func(sc Scale, seed int64) baselines.Method {
			return baselines.NewProtoNet(sc.Episodes, seed)
		}},
	}
}

// RunTable1 reproduces Table I for one dataset.
func RunTable1(cfg Table1Config) (*Table1Result, error) {
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
	roster := filterRoster(table1Roster(), cfg.Methods)
	if len(roster) == 0 {
		return nil, fmt.Errorf("experiments: no methods match filter %v", cfg.Methods)
	}

	clfNames := make([]string, 0, len(models.AllKinds()))
	for _, k := range models.AllKinds() {
		clfNames = append(clfNames, k.String())
	}

	res := &Table1Result{
		Dataset:     cfg.Dataset,
		Shots:       append([]int(nil), cfg.Shots...),
		Classifiers: clfNames,
		Repeats:     cfg.Repeats,
	}
	acc := make(map[string]map[int]map[string][]float64)
	for _, spec := range roster {
		acc[spec.name] = make(map[int]map[string][]float64)
		for _, s := range cfg.Shots {
			acc[spec.name][s] = make(map[string][]float64)
		}
	}

	// Enumerate the independent (rep, shot, method) cells in the same
	// rep-major nesting order as the historical sequential loops. Support
	// draws stay sequential (each has its own seeded RNG anyway) and are
	// shared by every method cell of the same (rep, shot), exactly as
	// before.
	type t1Cell struct {
		rep, shot int
		spec      methodSpec
		support   *dataset.Dataset
	}
	var cells []t1Cell
	for rep := 0; rep < cfg.Repeats; rep++ {
		for _, shot := range cfg.Shots {
			drawRng := rand.New(rand.NewSource(cfg.Seed + int64(rep)*977 + int64(shot)))
			support, _, err := pair.TargetTrain.FewShot(shot, pair.UseGroups, drawRng)
			if err != nil {
				return nil, err
			}
			for _, spec := range roster {
				cells = append(cells, t1Cell{rep, shot, spec, support})
			}
		}
	}

	workers := par.Resolve(cfg.Workers)
	notify := lockedProgress(cfg.Progress, workers)
	scores := make([]map[string]float64, len(cells))
	if err := par.ForEachErr(workers, len(cells), func(ci int) error {
		c := cells[ci]
		seed := cfg.Seed + int64(c.rep)*7919 + int64(c.shot)*101
		m := c.spec.build(cfg.Scale, seed)
		if om, ok := m.(*OursMethod); ok {
			om.Cfg.Obs = cfg.Obs
			// The cell grid owns the parallelism; keep the in-cell FS
			// search and shard workers on their sequential paths to avoid
			// oversubscription. TrainShards still applies — the shard count
			// changes the bits, the worker count never does.
			om.Cfg.Workers = 1
			om.Cfg.TrainShards = cfg.TrainShards
		}
		// The cell is one unit of the method's work: a model-agnostic
		// method adapts once and every classifier column fits on the
		// shared result.
		defer baselines.Observe(cfg.Obs, m.Name())()
		am, agnostic := m.(baselines.AgnosticMethod)
		if !agnostic {
			f1, err := pair.score(m.Predict(pair.Source, c.support, pair.TargetTest, nil))
			if err != nil {
				return fmt.Errorf("%s shot=%d: %w", c.spec.name, c.shot, err)
			}
			scores[ci] = map[string]float64{"*": f1}
			progress(notify, "%s %s shot=%d rep=%d F1=%.1f",
				cfg.Dataset, c.spec.name, c.shot, c.rep, f1)
			return nil
		}
		adapted, err := am.Adapt(pair.Source, c.support, pair.TargetTest)
		if err != nil {
			return fmt.Errorf("%s shot=%d: %w", c.spec.name, c.shot, err)
		}
		out := make(map[string]float64)
		for _, kind := range models.AllKinds() {
			clf, err := models.New(kind, models.Options{
				Seed:   seed,
				Epochs: cfg.Scale.ClassifierEpochs,
				Trees:  cfg.Scale.Trees,
			})
			if err != nil {
				return err
			}
			f1, err := pair.score(adapted.Classify(clf))
			if err != nil {
				return fmt.Errorf("%s/%s shot=%d: %w", c.spec.name, kind, c.shot, err)
			}
			out[kind.String()] = f1
			progress(notify, "%s %s/%s shot=%d rep=%d F1=%.1f",
				cfg.Dataset, c.spec.name, kind, c.shot, c.rep, f1)
		}
		scores[ci] = out
		return nil
	}); err != nil {
		return nil, err
	}

	// Merge per-cell scores in cell (rep-major) order, classifiers in
	// models.AllKinds() order, so every mean's float summation order
	// matches the sequential path exactly.
	for ci := range cells {
		c := cells[ci]
		for _, kind := range models.AllKinds() {
			if v, ok := scores[ci][kind.String()]; ok {
				acc[c.spec.name][c.shot][kind.String()] = append(acc[c.spec.name][c.shot][kind.String()], v)
			}
		}
		if v, ok := scores[ci]["*"]; ok {
			acc[c.spec.name][c.shot]["*"] = append(acc[c.spec.name][c.shot]["*"], v)
		}
	}

	for _, spec := range roster {
		row := MethodRow{
			Method:        spec.name,
			Category:      spec.category,
			ModelAgnostic: acc[spec.name][cfg.Shots[0]]["*"] == nil,
			Scores:        make(map[int]map[string]float64),
		}
		for _, s := range cfg.Shots {
			row.Scores[s] = make(map[string]float64)
			for clf, vals := range acc[spec.name][s] {
				row.Scores[s][clf] = mean(vals)
			}
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// score is the macro-F1 of predictions for the target test rows; it passes
// a prediction error through.
func (p *Pair) score(pred []int, err error) (float64, error) {
	if err != nil {
		return 0, err
	}
	return metrics.MacroF1Score(p.TargetTest.Y, pred, p.NumClasses)
}

func filterRoster(roster []methodSpec, names []string) []methodSpec {
	if len(names) == 0 {
		return roster
	}
	want := make(map[string]bool, len(names))
	for _, n := range names {
		want[n] = true
	}
	var out []methodSpec
	for _, spec := range roster {
		if want[spec.name] {
			out = append(out, spec)
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

// BestScore returns the maximum cell value for a method row (any shot, any
// classifier); useful in summaries and tests.
func (r *Table1Result) BestScore(method string) (float64, bool) {
	for _, row := range r.Rows {
		if row.Method != method {
			continue
		}
		best := -1.0
		for _, byClf := range row.Scores {
			for _, v := range byClf {
				if v > best {
					best = v
				}
			}
		}
		return best, best >= 0
	}
	return 0, false
}

// Score returns a specific cell (clf "*" for model-specific methods).
func (r *Table1Result) Score(method string, shot int, clf string) (float64, bool) {
	for _, row := range r.Rows {
		if row.Method != method {
			continue
		}
		byClf, ok := row.Scores[shot]
		if !ok {
			return 0, false
		}
		if v, ok := byClf[clf]; ok {
			return v, true
		}
		v, ok := byClf["*"]
		return v, ok
	}
	return 0, false
}

// MeanScore averages a method's cells across all shots and classifiers.
func (r *Table1Result) MeanScore(method string) (float64, bool) {
	for _, row := range r.Rows {
		if row.Method != method {
			continue
		}
		var vals []float64
		for _, byClf := range row.Scores {
			keys := make([]string, 0, len(byClf))
			for k := range byClf {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			for _, k := range keys {
				vals = append(vals, byClf[k])
			}
		}
		if len(vals) == 0 {
			return 0, false
		}
		return mean(vals), true
	}
	return 0, false
}
