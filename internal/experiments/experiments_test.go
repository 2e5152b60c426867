package experiments

import (
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"netdrift/internal/core"
	"netdrift/internal/dataset"
	"netdrift/internal/models"
	"netdrift/internal/obs"
)

func TestScaleByName(t *testing.T) {
	for _, name := range []string{"quick", "bench", "full", ""} {
		if _, ok := ScaleByName(name); !ok {
			t.Errorf("ScaleByName(%q) not found", name)
		}
	}
	if _, ok := ScaleByName("nope"); ok {
		t.Error("unknown scale should not resolve")
	}
}

func TestMakePair(t *testing.T) {
	// The generators' own ground truth, from a tiny dataset of the same seed:
	// the variant set is fixed before any sampling, so scale cannot move it.
	gc, err := dataset.Synthetic5GC(dataset.FiveGCConfig{
		Seed: 1, SourceSamples: 32, TargetTrainPool: 32, TargetTestSamples: 32,
	})
	if err != nil {
		t.Fatal(err)
	}
	ipc, err := dataset.Synthetic5GIPC(dataset.FiveGIPCConfig{
		Seed: 1, SourceNormal: 50, SourceFaults: [4]int{8, 8, 8, 8},
		TargetNormal: 20, TargetFaults: [4]int{4, 4, 4, 4}, TargetTrainPerGroup: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	truth := map[string][]int{"5gc": gc.TrueVariant, "5gipc": ipc.Targets[0].TrueVariant}
	for _, name := range []string{"5gc", "5gipc"} {
		pair, err := MakePair(name, QuickScale, 1)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if pair.Source.NumSamples() == 0 || pair.TargetTest.NumSamples() == 0 {
			t.Errorf("%s: empty pair", name)
		}
		if len(pair.TrueVariant) == 0 || !slices.Equal(pair.TrueVariant, truth[name]) {
			t.Errorf("%s: TrueVariant %v; the generator's is %v", name, pair.TrueVariant, truth[name])
		}
	}
	if _, err := MakePair("bogus", QuickScale, 1); err == nil {
		t.Error("expected error for unknown dataset")
	}
}

// rows indexes a Table I result's rows by method.
func rows(res *Table1Result) map[string]MethodRow {
	out := make(map[string]MethodRow, len(res.Rows))
	for _, row := range res.Rows {
		out[row.Method] = row
	}
	return out
}

func TestTable1QuickShapeAndOrdering(t *testing.T) {
	res, err := RunTable1(Table1Config{
		Dataset: "5gc",
		Shots:   []int{5},
		Repeats: 1,
		Seed:    3,
		Scale:   QuickScale,
		Methods: []string{"FS+GAN (ours)", "FS (ours)", "SrcOnly", "CMT"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("rows = %d; want 4", len(res.Rows))
	}
	byMethod := rows(res)
	fsgan, ok := byMethod["FS+GAN (ours)"].Scores[5]["TNet"]
	if !ok {
		t.Fatal("missing FS+GAN cell")
	}
	srconly, ok := byMethod["SrcOnly"].Scores[5]["TNet"]
	if !ok {
		t.Fatal("missing SrcOnly cell")
	}
	if fsgan <= srconly {
		t.Errorf("FS+GAN (%.1f) must beat SrcOnly (%.1f) under drift", fsgan, srconly)
	}
	// Formatting renders every method.
	text := FormatTable1(res)
	for _, m := range []string{"FS+GAN (ours)", "FS (ours)", "SrcOnly", "CMT"} {
		if !strings.Contains(text, m) {
			t.Errorf("formatted table missing %q:\n%s", m, text)
		}
	}
}

func TestTable1ModelSpecificColumns(t *testing.T) {
	g, err := RunGrid(Config{
		Dataset: "5gipc",
		Shots:   []int{5},
		Repeats: 1,
		Seed:    4,
		Scale:   QuickScale,
		Methods: []string{"ProtoNet"},
	}, "table1")
	if err != nil {
		t.Fatal(err)
	}
	// A model-specific method fills the one "*" column per draw.
	if len(g.Draws) != 1 || g.Draws[0].Column != "*" || g.Draws[0].Arm != "ProtoNet" {
		t.Fatalf("draws = %+v; want one ProtoNet draw in column *", g.Draws)
	}
	row := g.Table1().Rows[0]
	if row.ModelAgnostic || len(row.Scores[5]) != 1 || row.Scores[5]["*"] != g.Draws[0].Value {
		t.Errorf("row = %+v; want one model-specific * cell holding the draw", row)
	}
}

func TestTable1UnknownInputs(t *testing.T) {
	if _, err := RunTable1(Table1Config{Dataset: "bogus", Scale: QuickScale}); err == nil {
		t.Error("expected error for unknown dataset")
	}
	if _, err := RunTable1(Table1Config{Dataset: "5gc", Scale: QuickScale,
		Methods: []string{"not-a-method"}}); err == nil {
		t.Error("expected error for empty roster")
	}
	if _, err := RunGrid(Config{Dataset: "5gc", Scale: QuickScale}, "table9"); err == nil {
		t.Error("expected error for unknown experiment")
	}
}

func TestTable2Quick(t *testing.T) {
	g, err := RunGrid(Config{
		Dataset: "5gipc",
		Shots:   []int{5},
		Repeats: 1,
		Seed:    5,
		Scale:   QuickScale,
	}, "table2")
	if err != nil {
		t.Fatal(err)
	}
	res := g.Table2()
	if len(res.Kinds) != 4 {
		t.Fatalf("kinds = %d; want 4", len(res.Kinds))
	}
	for _, k := range res.Kinds {
		if res.Scores[k][5] <= 0 {
			t.Errorf("FS+%s score missing", k)
		}
	}
	if !strings.Contains(FormatTable2(res), "FS+GAN") {
		t.Error("formatted table2 missing FS+GAN")
	}
}

// TestTable2GANRowIsTable1Cell pins the reuse -exp all relies on: Table
// II's GAN row is Table I's FS+GAN/TNet cell, bit for bit, each run
// standalone, at the default shard count and at TrainShards 2.
func TestTable2GANRowIsTable1Cell(t *testing.T) {
	if raceEnabled {
		t.Skip("trains every reconstructor twice; CI runs this test without the race detector")
	}
	for _, shards := range []int{0, 2} {
		cfg := Config{Dataset: "5gipc", Shots: []int{1, 5}, Repeats: 2, Seed: 21,
			Scale: QuickScale, Methods: []string{"FS+GAN (ours)"}, TrainShards: shards}
		t1, err := RunTable1(cfg)
		if err != nil {
			t.Fatal(err)
		}
		g2, err := RunGrid(cfg, "table2")
		if err != nil {
			t.Fatal(err)
		}
		t2 := g2.Table2()
		for _, s := range cfg.Shots {
			want := t1.Rows[0].Scores[s]["TNet"]
			if got := t2.Scores[core.ReconGAN][s]; math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("shards=%d shot=%d: Table II GAN %v, Table I FS+GAN/TNet %v", shards, s, got, want)
			}
		}
	}
}

func TestTable3Quick(t *testing.T) {
	g, err := RunGrid(Config{
		Shots:   []int{5},
		Repeats: 1,
		Seed:    6,
		Scale:   QuickScale,
	}, "table3")
	if err != nil {
		t.Fatal(err)
	}
	res := g.Table3()
	for a := 0; a < 2; a++ {
		for tgt := 0; tgt < 2; tgt++ {
			if res.Scores[a][tgt][5] <= 0 {
				t.Errorf("missing score FS+GAN_%d on Target_%d", a+1, tgt+1)
			}
		}
	}
	if res.CommonVariantFraction <= 0 {
		t.Error("common variant fraction should be positive (targets share the traffic shift)")
	}
	if !strings.Contains(FormatTable3(res), "FS+GAN_2") {
		t.Error("formatted table3 missing FS+GAN_2")
	}
}

func TestVariantCountsQuick(t *testing.T) {
	g, err := RunGrid(Config{
		Dataset: "5gc",
		Shots:   []int{1, 10},
		Repeats: 1,
		Seed:    7,
		Scale:   QuickScale,
	}, "sensitivity")
	if err != nil {
		t.Fatal(err)
	}
	res := g.VariantCounts()
	if res.TrueVariant != 78 {
		t.Errorf("true variant = %d; want 78", res.TrueVariant)
	}
	if res.FSCounts[10] < res.FSCounts[1] {
		t.Errorf("FS counts should grow with shots: %v", res.FSCounts)
	}
	// ICD is conservative: fewer variant features than FS (paper §VI-B(d)).
	if res.ICDCounts[10] > res.FSCounts[10] {
		t.Errorf("ICD (%v) should find fewer than FS (%v)", res.ICDCounts[10], res.FSCounts[10])
	}
	if !strings.Contains(FormatVariantCounts(res), "FS") {
		t.Error("formatted counts missing FS column")
	}
}

// verdictRecorder keeps the variant verdicts of the FS searches it sees.
type verdictRecorder struct {
	verdicts int
	variant  []int
}

func (r *verdictRecorder) CITest(obs.CITest) {}
func (r *verdictRecorder) Verdict(v obs.FeatureVerdict) {
	r.verdicts++
	if v.Variant {
		r.variant = append(r.variant, v.Feature)
	}
}

// TestFSArmsReachOneVariantSet checks the precondition for sharing one FS
// search among a (rep, shot)'s arms: the FS, FS+GAN, a Table II and the
// variant-count arm each run one search on the cell's support, and every
// one reaches the same variant set (their FNodeConfigs differ only in
// Workers and Obs, which never move a verdict).
func TestFSArmsReachOneVariantSet(t *testing.T) {
	const seed, shot = 3, 5
	pair, err := MakePair("5gc", QuickScale, seed)
	if err != nil {
		t.Fatal(err)
	}
	support, err := pair.SupportDraw(seed, 0, shot)
	if err != nil {
		t.Fatal(err)
	}
	arms := []*arm{
		methodArm(filterRoster(table1Roster(), []string{"FS (ours)"})[0], QuickScale, tnetOnly, true),
		methodArm(fsGAN, QuickScale, tnetOnly, true),
		methodArm(reconSpec(core.ReconVAE), QuickScale, tnetOnly, false),
		countsArm,
	}
	var want []int
	for i, a := range arms {
		rec := &verdictRecorder{}
		r := &gridRun{cfg: Config{Dataset: "5gc", Seed: seed, Scale: QuickScale, Obs: &obs.Observer{Search: rec}}, pair: pair}
		vals, err := a.cell(r, cell{shot: shot, seed: seed + shot*101, support: support, arm: a})
		if err != nil {
			t.Fatal(err)
		}
		if d := pair.Source.NumFeatures(); rec.verdicts != d {
			t.Fatalf("%s: %d verdicts; want one search's %d", a.name, rec.verdicts, d)
		}
		slices.Sort(rec.variant)
		if i == 0 {
			want = rec.variant
		} else if !slices.Equal(rec.variant, want) {
			t.Errorf("%s reached variant set %v; %s reached %v", a.name, rec.variant, arms[0].name, want)
		}
		if a == countsArm && int(vals[0]) != len(want) {
			t.Errorf("variant-count arm reports %v; the searches found %d", vals[0], len(want))
		}
	}
	if len(want) == 0 {
		t.Error("the searches found no variant feature; the check compares nothing")
	}
}

// TestVarianceQuick checks that the variance view reads FS+GAN/TNet's
// draws: a standalone variance grid's values are Table I's FS+GAN/TNet
// draws at that shot.
func TestVarianceQuick(t *testing.T) {
	cfg := Config{
		Dataset: "5gipc",
		Shots:   []int{5},
		Repeats: 2,
		Seed:    8,
		Scale:   QuickScale,
		Methods: []string{"FS+GAN (ours)"},
	}
	g, err := RunGrid(cfg, "variance")
	if err != nil {
		t.Fatal(err)
	}
	res := g.Variance()
	if len(res) != 1 || len(res[0].Values) != 2 {
		t.Fatalf("variance = %+v; want one shot with 2 values", res)
	}
	if res[0].Mean <= 0 {
		t.Error("mean F1 should be positive")
	}
	if !strings.Contains(FormatVariance(res), "FS+GAN") {
		t.Error("formatted variance missing method name")
	}
	if raceEnabled {
		return // Table I's four classifier fits are too slow under the race detector
	}
	t1, err := RunGrid(cfg, "table1")
	if err != nil {
		t.Fatal(err)
	}
	want := t1.values("FS+GAN (ours)", "TNet", 5)
	if !slices.EqualFunc(res[0].Values, want, func(a, b float64) bool {
		return math.Float64bits(a) == math.Float64bits(b)
	}) {
		t.Errorf("variance values %v; Table I's FS+GAN/TNet draws %v", res[0].Values, want)
	}
}

// TestAllGridTrainsOneGANPerDraw checks the reuse in an -exp all-shaped
// run: one grid per dataset with Table I, Table II, the variant counts and
// the variance, then Table III's grid. Table II's GAN row and the variance
// read Table I's FS+GAN cells, so the GAN fits are one per (rep, shot) per
// dataset plus Table III's two per cell.
func TestAllGridTrainsOneGANPerDraw(t *testing.T) {
	if raceEnabled {
		t.Skip("trains every reconstructor on both datasets; too slow under the race detector")
	}
	o := obs.New()
	cfg := Config{Shots: []int{1, 5}, Repeats: 1, Seed: 31, Scale: QuickScale,
		Methods: []string{"FS+GAN (ours)", "SrcOnly"}, Obs: o}
	for _, ds := range []string{"5gc", "5gipc"} {
		cfg.Dataset = ds
		g, err := RunGrid(cfg, "table1", "table2", "sensitivity", "variance")
		if err != nil {
			t.Fatal(err)
		}
		if t1, t2 := g.Table1(), g.Table2(); t2.Scores[core.ReconGAN][5] != t1.Rows[0].Scores[5]["TNet"] {
			t.Errorf("%s: Table II GAN row %v is not Table I's FS+GAN/TNet cell %v",
				ds, t2.Scores[core.ReconGAN][5], t1.Rows[0].Scores[5]["TNet"])
		}
	}
	cfg.Dataset = ""
	if _, err := RunGrid(cfg, "table3"); err != nil {
		t.Fatal(err)
	}
	cells := cfg.Repeats * len(cfg.Shots)
	if fits, _ := o.Registry.Value(obs.MetricTrainFits, "model", "GAN"); int(fits) != 2*cells+2*cells {
		t.Errorf("GAN fits = %v; want %d per dataset plus Table III's %d", fits, cells, 2*cells)
	}
}

func TestInDomainQuick(t *testing.T) {
	res, err := RunInDomain(Config{
		Dataset: "5gipc",
		Seed:    9,
		Scale:   QuickScale,
	})
	if err != nil {
		t.Fatal(err)
	}
	// QuickScale trains tiny models on tiny data; this is a smoke check
	// that in-domain performance is well above the 2-class chance level.
	// The bench harness validates the full-scale levels.
	for _, clf := range []string{"TNet", "MLP", "RF", "XGB"} {
		if res.F1[clf] < 45 {
			t.Errorf("in-domain %s F1 = %.1f; should beat chance comfortably", clf, res.F1[clf])
		}
	}
	if !strings.Contains(FormatInDomain(res), "source domain") {
		t.Error("formatted in-domain output malformed")
	}
}

// TestM1PredictionStability asserts the §V-C2 premise at the prediction
// level: two independent TransformTarget calls (different noise draws) give
// the downstream classifier effectively identical predictions.
func TestM1PredictionStability(t *testing.T) {
	pair, err := MakePair("5gipc", QuickScale, 11)
	if err != nil {
		t.Fatal(err)
	}
	support, _, err := pair.TargetTrain.FewShot(5, true, randFor(12))
	if err != nil {
		t.Fatal(err)
	}
	ad := core.NewAdapter(core.AdapterConfig{
		Mode:  core.ModeFSRecon,
		Recon: core.ReconGAN,
		GAN:   core.GANConfig{Epochs: QuickScale.GANEpochs},
		Seed:  13,
	})
	if err := ad.Fit(pair.Source, support); err != nil {
		t.Fatal(err)
	}
	train, err := ad.TrainingData(pair.Source)
	if err != nil {
		t.Fatal(err)
	}
	clf := models.NewMLPClassifier(models.Options{Seed: 13, Epochs: QuickScale.ClassifierEpochs})
	if err := clf.Fit(train.X, train.Y, 2); err != nil {
		t.Fatal(err)
	}
	a, err := ad.TransformTarget(pair.TargetTest.X)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ad.TransformTarget(pair.TargetTest.X)
	if err != nil {
		t.Fatal(err)
	}
	predA, err := models.PredictClasses(clf, a)
	if err != nil {
		t.Fatal(err)
	}
	predB, err := models.PredictClasses(clf, b)
	if err != nil {
		t.Fatal(err)
	}
	var agree int
	for i := range predA {
		if predA[i] == predB[i] {
			agree++
		}
	}
	if frac := float64(agree) / float64(len(predA)); frac < 0.97 {
		t.Errorf("prediction agreement across noise draws = %.3f; want >= 0.97 (M=1 premise)", frac)
	}
}

func randFor(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }
