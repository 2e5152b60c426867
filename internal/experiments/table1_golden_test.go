package experiments

import (
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
	"testing"

	"netdrift/internal/nn"
)

const table1GoldenPath = "testdata/table1_quick_5gc.golden"

// table1Golden runs the pinned Table I: 5GC at quick scale, shots {1,5,10},
// one draw, seed 1.
func table1Golden(t *testing.T) []string {
	t.Helper()
	res, err := RunTable1(Table1Config{
		Dataset: "5gc",
		Shots:   []int{1, 5, 10},
		Repeats: 1,
		Seed:    1,
		Scale:   QuickScale,
	})
	if err != nil {
		t.Fatal(err)
	}
	var lines []string
	for _, row := range res.Rows {
		for shot, byClf := range row.Scores {
			for clf, v := range byClf {
				lines = append(lines, fmt.Sprintf("%s|%d|%s|%016x|%.4f",
					row.Method, shot, clf, math.Float64bits(v), v))
			}
		}
	}
	sort.Strings(lines)
	return lines
}

// TestRunTable1Golden pins every cell of a quick-scale 5GC Table I to the
// Float64bits recorded in testdata, which the filter-scan boosting split
// search with one adaptation per classifier produced. Faster paths must not
// move a single cell, at any kernel width: one subtest per width this host
// has, the Go twins included.
func TestRunTable1Golden(t *testing.T) {
	if raceEnabled {
		t.Skip("a full Table I is too slow under the race detector; CI runs this test without it")
	}
	blob, err := os.ReadFile(table1GoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSpace(string(blob)), "\n")
	widths := nn.KernelWidths()
	defer nn.SetKernelWidth(nn.SetKernelWidth(widths[0]))
	for _, width := range widths {
		t.Run(width, func(t *testing.T) {
			nn.SetKernelWidth(width)
			got := table1Golden(t)
			if len(got) != len(want) {
				t.Fatalf("%d cells, golden has %d", len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Errorf("cell %d: got %s, want %s", i, got[i], want[i])
				}
			}
		})
	}
}
