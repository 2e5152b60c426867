package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"strings"
)

// boundDef is one end_to_end entry of BENCHMARK.json.
type boundDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// Verdicts -compare gives each (metric, workload) pair.
const (
	verdictBetter     = "better"
	verdictSame       = "same"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// judge compares the new runs of one metric on one workload with the old
// runs, by medians and quartiles:
//
//   - better: the new median is better than the old by more than the old
//     runs' own spread (Q3-Q1), and the new run wins at least nine tenths
//     of the pairs (run i of each side; ties count for neither);
//   - worse: otherwise, when the new median is worse than the old by more
//     than the bound, however wide either side's spread;
//   - unresolved: otherwise, when either side's spread, as a share of its
//     median, is wider than the bound, so "within the bound" cannot be read;
//   - same: within the bound.
func judge(old, cur []float64, better string, bound float64) string {
	mo, mc := median(old), median(cur)
	worse := func(a, b float64) bool { return a > b } // a worse than b
	if better == "higher" {
		worse = func(a, b float64) bool { return a < b }
	}
	qo, qc := quartiles(old), quartiles(cur)
	spreadOld, spreadCur := qo[2]-qo[0], qc[2]-qc[0]
	wins, pairs := 0, min(len(old), len(cur))
	for i := 0; i < pairs; i++ {
		if worse(old[i], cur[i]) {
			wins++
		}
	}
	gain := mo - mc
	if better == "higher" {
		gain = -gain
	}
	switch {
	case gain > spreadOld && pairs > 0 && wins*10 >= pairs*9:
		return verdictBetter
	case -gain > bound*math.Abs(mo):
		return verdictWorse
	case spreadOld > bound*math.Abs(mo) || spreadCur > bound*math.Abs(mc):
		return verdictUnresolved
	default:
		return verdictSame
	}
}

// runCompare applies BENCHMARK.json's bounds to every end-to-end (metric,
// workload) pair of two result files written by -out, printing one row per
// workload. Only untraced runs count. Any "worse" verdict is an error, so
// the command can gate a change.
func runCompare(out io.Writer, benchJSON, oldPath, newPath string) error {
	blob, err := os.ReadFile(benchJSON)
	if err != nil {
		return err
	}
	var spec struct {
		EndToEnd []boundDef `json:"end_to_end"`
	}
	if err := json.Unmarshal(blob, &spec); err != nil {
		return fmt.Errorf("%s: %w", benchJSON, err)
	}
	oldRuns, err := loadRecords(oldPath)
	if err != nil {
		return err
	}
	newRuns, err := loadRecords(newPath)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "compare %s (old) -> %s (new): medians, verdict per BENCHMARK.json bound\n", oldPath, newPath)
	regressions := 0
	for _, w := range workloadNames() {
		o, n := oldRuns[w], newRuns[w]
		if len(o) == 0 && len(n) == 0 {
			continue
		}
		cells := []string{fmt.Sprintf("%-15s runs %d/%d", w, len(o), len(n))}
		for _, b := range spec.EndToEnd {
			ov, nv := values(o, b.Name), values(n, b.Name)
			if len(ov) == 0 || len(nv) == 0 {
				cells = append(cells, b.Name+"=missing")
				continue
			}
			v := judge(ov, nv, b.Better, b.Bound)
			if v == verdictWorse {
				regressions++
			}
			cells = append(cells, fmt.Sprintf("%s=%s(%.4g -> %.4g %s)", b.Name, v, median(ov), median(nv), b.Unit))
		}
		fmt.Fprintln(out, strings.Join(cells, "  "))
	}
	if regressions > 0 {
		return fmt.Errorf("%d (metric, workload) pairs regressed beyond their bound", regressions)
	}
	return nil
}

// loadRecords reads a -out file and groups its untraced runs by workload,
// in file order.
func loadRecords(path string) (map[string][]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	runs := make(map[string][]record)
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for line := 1; sc.Scan(); line++ {
		if strings.TrimSpace(sc.Text()) == "" {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		if r.Trace == 0 {
			runs[r.Workload] = append(runs[r.Workload], r)
		}
	}
	return runs, sc.Err()
}

func values(runs []record, name string) []float64 {
	var xs []float64
	for _, r := range runs {
		if m, ok := r.Metrics[name]; ok {
			xs = append(xs, m.Value)
		}
	}
	return xs
}
