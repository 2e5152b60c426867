package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func scaled(xs []float64, f float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * f
	}
	return out
}

func TestJudge(t *testing.T) {
	steady := []float64{10.0, 10.1, 9.9, 10.05, 9.95, 10.02, 9.98, 10.0, 10.1, 9.9} // spread ~1.5%
	noisy := []float64{7, 13, 9, 11, 8, 12, 10, 14, 6, 10}                          // spread ~40%
	for _, tc := range []struct {
		name     string
		old, cur []float64
		better   string
		bound    float64
		want     string
	}{
		{"unchanged", steady, steady, "lower", 0.1, verdictSame},
		{"small slowdown inside the bound", steady, scaled(steady, 1.05), "lower", 0.1, verdictSame},
		{"slowdown past the bound", steady, scaled(steady, 1.2), "lower", 0.1, verdictWorse},
		{"speed-up on every pair", steady, scaled(steady, 0.8), "lower", 0.1, verdictBetter},
		{"speed-up smaller than the old spread", steady, scaled(steady, 0.995), "lower", 0.1, verdictSame},
		{"spread wider than the bound", noisy, noisy, "lower", 0.1, verdictUnresolved},
		{"new side noisy", steady, noisy, "lower", 0.1, verdictUnresolved},
		{"new side noisy and slower past the bound", steady, scaled(noisy, 2), "lower", 0.1, verdictWorse},
		{"old side noisy, new slower past the bound", noisy, scaled(steady, 1.5), "lower", 0.1, verdictWorse},
		{"higher is better: drop", steady, scaled(steady, 0.8), "higher", 0.1, verdictWorse},
		{"higher is better: rise", steady, scaled(steady, 1.2), "higher", 0.1, verdictBetter},
		{"gain on the medians but not on nine pairs in ten",
			[]float64{10, 10, 10, 10, 10, 10, 10, 10, 10, 10},
			[]float64{9, 9, 9, 9, 9, 9, 9, 9, 11, 11}, "lower", 0.25, verdictSame},
	} {
		if got := judge(tc.old, tc.cur, tc.better, tc.bound); got != tc.want {
			t.Errorf("%s: judge = %s, want %s", tc.name, got, tc.want)
		}
	}
}

func TestRunCompareReportsEachWorkloadAndFailsOnRegression(t *testing.T) {
	dir := t.TempDir()
	spec := filepath.Join(dir, "BENCHMARK.json")
	writeJSON(t, spec, map[string]any{"end_to_end": []boundDef{
		{Name: "job_s", Unit: "s", Better: "lower", Bound: 0.1},
		{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	}})
	runs := func(path string, fitJob, serveJob float64) {
		var buf bytes.Buffer
		for seed := int64(1); seed <= 5; seed++ {
			for _, w := range []struct {
				name string
				job  float64
			}{{"fit-5gc", fitJob}, {"serve-open", serveJob}} {
				r := record{Workload: w.name, Seed: seed}
				r.Metrics = map[string]metric{
					"job_s":   {Value: w.job * (1 + float64(seed)/1000), Unit: "s"},
					"setup_s": {Value: 1, Unit: "s"},
				}
				line, _ := json.Marshal(r)
				buf.Write(append(line, '\n'))
			}
			traced := record{Workload: "fit-5gc", Seed: seed, Trace: 1}
			traced.Metrics = map[string]metric{"job_s": {Value: 100, Unit: "s"}}
			line, _ := json.Marshal(traced)
			buf.Write(append(line, '\n'))
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	oldPath, newPath := filepath.Join(dir, "old.jsonl"), filepath.Join(dir, "new.jsonl")
	runs(oldPath, 2, 3)
	runs(newPath, 2, 4) // serve-open's job 33% slower

	var out bytes.Buffer
	err := runCompare(&out, spec, oldPath, newPath)
	if err == nil {
		t.Fatal("a 33% regression against a 10% bound passed")
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("want a header and one row per workload, got:\n%s", out.String())
	}
	if !strings.HasPrefix(lines[1], "fit-5gc") || !strings.Contains(lines[1], "job_s=same") || !strings.Contains(lines[1], "runs 5/5") {
		t.Errorf("fit-5gc row: %s", lines[1])
	}
	if !strings.HasPrefix(lines[2], "serve-open") || !strings.Contains(lines[2], "job_s=worse") || !strings.Contains(lines[2], "setup_s=same") {
		t.Errorf("serve-open row: %s", lines[2])
	}
	if err := runCompare(&out, spec, oldPath, oldPath); err != nil {
		t.Errorf("a set compared with itself: %v", err)
	}
}

func writeJSON(t *testing.T, path string, v any) {
	t.Helper()
	blob, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatal(err)
	}
}
