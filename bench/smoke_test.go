package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
	"time"

	"netdrift/internal/experiments"
)

// tinyConfig shrinks every workload to seconds of work while keeping each
// one's real code path: every Table I method, the full serving stack and a
// complete drift campaign.
func tinyConfig(t *testing.T) config {
	cfg := defaultConfig()
	cfg.Seconds, cfg.Setups, cfg.WorkDir = 0.5, 2, t.TempDir()
	cfg.Quick = experiments.Scale{
		GCSource: 160, GCTargetPool: 96, GCTargetTest: 64,
		ClassifierEpochs: 2, Trees: 3, GANEpochs: 2, AdvEpochs: 2, Episodes: 5, FineTuneEpochs: 2,
	}
	// Smaller 5GIPC pairs or shorter refits fail the shadow gate.
	cfg.Drift = experiments.BenchScale
	cfg.Drift.GANEpochs = 10
	cfg.InferPasses, cfg.Table1Shots = 1, []int{1}
	cfg.Burst = 64
	cfg.WatchFor, cfg.CampaignTimeout = 100*time.Millisecond, time.Minute
	return cfg
}

// TestWorkloadsSmoke runs every workload untraced and traced at a tiny size
// and checks that each run is correct and reports every metric it owes.
func TestWorkloadsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload end to end")
	}
	cfg := tinyConfig(t)
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			for _, traced := range []bool{false, true} {
				rec, tr, err := measure(w, cfg, 3, traced)
				if err != nil {
					t.Fatalf("traced=%v: %v", traced, err)
				}
				if !rec.Correct || rec.Failed != 0 || rec.Attempted == 0 {
					t.Errorf("traced=%v: correct=%v attempted=%d failed=%d", traced, rec.Correct, rec.Attempted, rec.Failed)
				}
				want := reported(traced)
				if len(rec.Metrics) != len(want) {
					t.Errorf("traced=%v: %d metrics, want %d", traced, len(rec.Metrics), len(want))
				}
				for _, d := range want {
					m, ok := rec.Metrics[d.name]
					if !ok || m.Unit != d.unit {
						t.Errorf("traced=%v: metric %s = %+v", traced, d.name, m)
					}
					if !traced && m.Value <= 0 {
						t.Errorf("end-to-end %s = %g, want > 0", d.name, m.Value)
					}
				}
				if traced && (tr == nil || len(tr.sink.Spans()) == 0) {
					t.Error("traced run recorded no spans")
				}
			}
		})
	}
}

// TestBenchmarkJSONMatchesTheCode keeps BENCHMARK.json and the metrics and
// workloads the code reports in step.
func TestBenchmarkJSONMatchesTheCode(t *testing.T) {
	blob, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []boundDef              `json:"end_to_end"`
		PerLayer  []boundDef              `json:"per_layer"`
	}
	if err := json.Unmarshal(blob, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames()) {
		t.Errorf("BENCHMARK.json workloads %v, code %v", names, workloadNames())
	}
	check := func(kind string, got []boundDef, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the code %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s/%s, code %s/%s", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}
