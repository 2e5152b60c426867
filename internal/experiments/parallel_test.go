package experiments

import (
	"encoding/json"
	"sync"
	"testing"
)

// marshal renders a result to canonical JSON bytes for byte-level
// comparison between worker counts.
func marshal(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestRunTable1WorkersBitIdentical is the pinned determinism test from the
// parallel-compute acceptance bar: a full Table I cell grid run with
// Workers=N must serialize to the same bytes as Workers=1, and so must
// every other view of the grid (Table II, Table III, the variant counts)
// with its draws.
func TestRunTable1WorkersBitIdentical(t *testing.T) {
	// Under the race detector the FS search is ~10x slower, so exercise
	// the concurrent cell pool with the cheap method only; the full grid
	// and the other views run in the normal suite.
	methods := []string{"FS (ours)", "SrcOnly"}
	workerCounts := []int{2, 4}
	if raceEnabled {
		methods = []string{"SrcOnly"}
		workerCounts = []int{4}
	}
	views := []struct {
		exp, dataset string
		shots        []int
		view         func(*Grid) any
	}{
		{"table1", "5gc", []int{1}, func(g *Grid) any { return g.Table1() }},
		{"table2", "5gipc", []int{1}, func(g *Grid) any { return g.Table2() }},
		{"table3", "", []int{1}, func(g *Grid) any { return g.Table3() }},
		{"sensitivity", "5gc", []int{1, 5}, func(g *Grid) any { return g.VariantCounts() }},
	}
	for _, v := range views {
		t.Run(v.exp, func(t *testing.T) {
			if raceEnabled && v.exp != "table1" {
				t.Skip("FS searches and reconstructor fits are too slow under the race detector; Table I's cheap arm covers the pool")
			}
			run := func(workers int) []byte {
				g, err := RunGrid(Config{
					Dataset: v.dataset,
					Methods: methods,
					Shots:   v.shots,
					Repeats: 2,
					Seed:    5,
					Scale:   QuickScale,
					Workers: workers,
				}, v.exp)
				if err != nil {
					t.Fatal(err)
				}
				return marshal(t, []any{v.view(g), g.Draws})
			}
			seq := run(1)
			for _, workers := range workerCounts {
				if par := run(workers); string(par) != string(seq) {
					t.Errorf("workers=%d: %s bytes differ from sequential\nseq %s\npar %s",
						workers, v.exp, seq, par)
				}
			}
		})
	}
}

// TestLockedProgressSerializes checks the wrapper used to guard the
// user-supplied Progress callback during concurrent cell evaluation.
func TestLockedProgressSerializes(t *testing.T) {
	if lockedProgress(nil, 8) != nil {
		t.Error("nil callback should stay nil")
	}
	var lines []string
	raw := func(s string) { lines = append(lines, s) }
	wrapped := lockedProgress(raw, 8)
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			wrapped("line")
		}()
	}
	wg.Wait()
	if len(lines) != 16 {
		t.Errorf("got %d progress lines; want 16", len(lines))
	}
}
