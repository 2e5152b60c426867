package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"netdrift/internal/experiments"
	"netdrift/internal/obs"
)

// table1-quick: Table I on 5GC at quick scale, every method, classifier
// and shot count with one few-shot draw, over a Workers-wide cell grid,
// observed the way driftbench -exp table1 observes it (a registry, no
// spans). A job is one RunTable1. It serves no requests, so p50_ms and
// tail_ms read the job's own latency.

// table1Methods is the Table I roster and the key each method's per-layer
// metric uses.
var table1Methods = []struct{ name, key string }{
	{"FS+GAN (ours)", "fs_gan"}, {"FS (ours)", "fs"}, {"CMT", "cmt"}, {"ICD", "icd"},
	{"SrcOnly", "srconly"}, {"TarOnly", "taronly"}, {"S&T", "s_t"}, {"Fine-tune", "fine_tune"},
	{"CORAL", "coral"}, {"DANN", "dann"}, {"SCL", "scl"}, {"MatchNet", "matchnet"}, {"ProtoNet", "protonet"},
}

// methodKey maps a Table I method name to its metric key; a method the
// roster above does not know yields a key no metric declares, which the
// harness reports as an error.
func methodKey(name string) string {
	for _, m := range table1Methods {
		if m.name == name {
			return m.key
		}
	}
	return "unknown(" + name + ")"
}

type table1Env struct {
	cfg  config
	seed int64
}

// setupTable1 generates the 5GC pair of the run's first job, so a seed that
// cannot produce one fails before the timed phase. RunTable1 takes no pair,
// only a seed, and generates it again at its start: the set-up's result is
// discarded, and setup_s here times that data generation, a few ms that
// the job repeats.
func setupTable1(cfg config, seed int64, _ *tracer) (env, error) {
	if _, err := experiments.MakePair("5gc", cfg.Quick, subSeed(seed, 0)); err != nil {
		return nil, err
	}
	return &table1Env{cfg: cfg, seed: seed}, nil
}

func (e *table1Env) close() {}

func (e *table1Env) run(tr *tracer) (*phase, error) {
	p := &phase{correct: true}
	var allocs, f1s []float64
	deadline := time.Now().Add(e.cfg.window())
	for j := 0; j == 0 || time.Now().Before(deadline); j++ {
		o := tr.observer()
		if o == nil {
			o = obs.New()
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		start := time.Now()
		res, err := experiments.RunTable1(experiments.Table1Config{
			Dataset: "5gc", Shots: e.cfg.Table1Shots, Repeats: 1, Seed: subSeed(e.seed, j),
			Scale: e.cfg.Quick, Workers: workers(), Obs: o,
		})
		if err != nil {
			return nil, err
		}
		secs := time.Since(start).Seconds()
		runtime.ReadMemStats(&after)
		p.jobs = append(p.jobs, secs)
		p.lat = append(p.lat, secs*1e3)
		allocs = append(allocs, mb(after.TotalAlloc-before.TotalAlloc))
		attempted, failed := checkTable1(res)
		p.attempted += attempted
		p.failed += failed
		p.correct = p.correct && failed == 0
		f1, _ := res.MeanScore("FS+GAN (ours)")
		f1s = append(f1s, f1)
	}
	p.allocMB = median(allocs)
	p.layers = map[string]float64{"quality.table1_f1": median(f1s)}
	p.detail = map[string]string{"table1_f1": fmt.Sprintf("FS+GAN row mean macro-F1 %.2f", median(f1s))}
	return p, nil
}

// checkTable1 counts the table's cells and those without a finite score:
// every roster method, every shot, every classifier column (or the single
// "*" column of a model-specific method).
func checkTable1(res *experiments.Table1Result) (attempted, failed int) {
	rows := make(map[string]experiments.MethodRow, len(res.Rows))
	for _, r := range res.Rows {
		rows[r.Method] = r
	}
	for _, m := range table1Methods {
		row, ok := rows[m.name]
		cols := res.Classifiers
		if ok && !row.ModelAgnostic {
			cols = []string{"*"}
		}
		for _, shot := range res.Shots {
			for _, clf := range cols {
				attempted++
				v, present := row.Scores[shot][clf]
				if !ok || !present || math.IsNaN(v) || math.IsInf(v, 0) {
					failed++
				}
			}
		}
	}
	return attempted, failed
}
