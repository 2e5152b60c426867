package experiments

import (
	"fmt"
	"sort"

	"netdrift/internal/baselines"
	"netdrift/internal/dataset"
	"netdrift/internal/metrics"
	"netdrift/internal/models"
)

// Pair is one drifted dataset instance for the evaluation protocol.
type Pair struct {
	Name        string
	Source      *dataset.Dataset
	TargetTrain *dataset.Dataset // few-shot candidate pool
	TargetTest  *dataset.Dataset
	UseGroups   bool // stratify few-shot draws by fault type (5GIPC)
	NumClasses  int
	// TrueVariant is the generator's intervened features: the variant set
	// FS should find. The generators fix it from the seed alone, so it is
	// the same at every scale.
	TrueVariant []int
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
			TrueVariant: d.TrueVariant,
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
			TrueVariant: d.Targets[0].TrueVariant,
		}, nil
	default:
		return nil, fmt.Errorf("experiments: unknown dataset %q", name)
	}
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

// fsGAN is the paper's method: Table I's first row, Table II's GAN row and
// the variance's arm.
var fsGAN = methodSpec{"FS+GAN (ours)", "Causal Learning", func(sc Scale, seed int64) baselines.Method {
	return NewFSGAN(sc.GANEpochs, seed)
}}

func table1Roster() []methodSpec {
	return []methodSpec{
		fsGAN,
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

// The classifier columns a model-agnostic arm fills: Table I's four, or
// TNet alone for the arms that only Table II and the variance read.
var (
	allKinds = models.AllKinds()
	tnetOnly = []models.Kind{models.KindTNet}
)

// methodArm makes a method's arm. A model-agnostic method adapts once per
// cell and fills one column per classifier kind; a model-specific one
// fills the single column "*".
func methodArm(spec methodSpec, sc Scale, kinds []models.Kind, table1 bool) *arm {
	a := &arm{name: spec.name, category: spec.category, table1: table1, cols: []string{"*"}}
	if _, ok := spec.build(sc, 0).(baselines.AgnosticMethod); ok {
		a.cols = nil
		for _, k := range kinds {
			a.cols = append(a.cols, k.String())
		}
	}
	a.cell = func(r *gridRun, c cell) ([]float64, error) { return r.method(spec, kinds, c) }
	return a
}

// method runs one method cell.
func (r *gridRun) method(spec methodSpec, kinds []models.Kind, c cell) ([]float64, error) {
	cfg, pair := r.cfg, r.pair
	m := spec.build(cfg.Scale, c.seed)
	if om, ok := m.(*OursMethod); ok {
		om.Cfg.Obs = cfg.Obs
		// The cell grid owns the parallelism; keep the in-cell FS search
		// and shard workers on their sequential paths to avoid
		// oversubscription. TrainShards still applies — the shard count
		// changes the bits, the worker count never does.
		om.Cfg.Workers = 1
		om.Cfg.TrainShards = cfg.TrainShards
	}
	// The cell is one unit of the method's work: a model-agnostic method
	// adapts once and every classifier column fits on the shared result.
	defer baselines.Observe(cfg.Obs, m.Name())()
	am, agnostic := m.(baselines.AgnosticMethod)
	if !agnostic {
		f1, err := pair.score(m.Predict(pair.Source, c.support, pair.TargetTest, nil))
		if err != nil {
			return nil, fmt.Errorf("%s shot=%d: %w", spec.name, c.shot, err)
		}
		progress(r.notify, "%s %s shot=%d rep=%d F1=%.1f", cfg.Dataset, spec.name, c.shot, c.rep, f1)
		return []float64{f1}, nil
	}
	adapted, err := am.Adapt(pair.Source, c.support, pair.TargetTest)
	if err != nil {
		return nil, fmt.Errorf("%s shot=%d: %w", spec.name, c.shot, err)
	}
	out := make([]float64, len(kinds))
	for i, kind := range kinds {
		clf, err := models.New(kind, models.Options{
			Seed:   c.seed,
			Epochs: cfg.Scale.ClassifierEpochs,
			Trees:  cfg.Scale.Trees,
		})
		if err != nil {
			return nil, err
		}
		if out[i], err = pair.score(adapted.Classify(clf)); err != nil {
			return nil, fmt.Errorf("%s/%s shot=%d: %w", spec.name, kind, c.shot, err)
		}
		progress(r.notify, "%s %s/%s shot=%d rep=%d F1=%.1f",
			cfg.Dataset, spec.name, kind, c.shot, c.rep, out[i])
	}
	return out, nil
}

// RunTable1 reproduces Table I for one dataset.
func RunTable1(cfg Config) (*Table1Result, error) {
	g, err := RunGrid(cfg, "table1")
	if err != nil {
		return nil, err
	}
	return g.Table1(), nil
}

// Table1 is the Table I view: one row per Table I arm, each cell the mean
// of its draws.
func (g *Grid) Table1() *Table1Result {
	res := &Table1Result{Dataset: g.Dataset, Shots: g.Shots, Repeats: g.Repeats}
	for _, k := range allKinds {
		res.Classifiers = append(res.Classifiers, k.String())
	}
	for _, a := range g.arms {
		if !a.table1 {
			continue
		}
		row := MethodRow{
			Method:        a.name,
			Category:      a.category,
			ModelAgnostic: a.cols[0] != "*",
			Scores:        make(map[int]map[string]float64),
		}
		for _, s := range g.Shots {
			row.Scores[s] = make(map[string]float64, len(a.cols))
			for _, col := range a.cols {
				row.Scores[s][col] = mean(g.values(a.name, col, s))
			}
		}
		res.Rows = append(res.Rows, row)
	}
	return res
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
