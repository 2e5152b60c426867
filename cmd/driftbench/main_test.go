package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestReportDataset pins the -json report's dataset field to the dataset
// the run actually used: table3 ignores -dataset, so its report leaves the
// field blank end to end, as it does for all, which runs both datasets.
func TestReportDataset(t *testing.T) {
	jsonPath := filepath.Join(t.TempDir(), "report.json")
	var buf bytes.Buffer
	err := run([]string{
		"-exp", "table3", "-dataset", "5gipc", "-scale", "quick",
		"-shots", "1", "-repeats", "1", "-json", jsonPath,
	}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	var rep report
	if err := json.Unmarshal(blob, &rep); err != nil {
		t.Fatalf("report is not valid JSON: %v", err)
	}
	if rep.Experiment != "table3" || rep.Dataset != "" {
		t.Errorf("report header = %q/%q; want table3 with no dataset", rep.Experiment, rep.Dataset)
	}
	if _, ok := rep.Results["table3"]; !ok {
		t.Errorf("report missing table3 results: %v", rep.Results)
	}
	for _, tt := range []struct{ exp, want string }{
		{"table1", "5gipc"}, {"indomain", "5gipc"}, {"table3", ""}, {"all", ""},
	} {
		if got := datasetFor(tt.exp, "5gipc"); got != tt.want {
			t.Errorf("datasetFor(%s, 5gipc) = %q; want %q", tt.exp, got, tt.want)
		}
	}
}

func TestParseShots(t *testing.T) {
	tests := []struct {
		in      string
		want    []int
		wantErr bool
	}{
		{in: "1,5,10", want: []int{1, 5, 10}},
		{in: " 5 ", want: []int{5}},
		{in: "1,,5", want: []int{1, 5}},
		{in: "", wantErr: true},
		{in: "a", wantErr: true},
		{in: "0", wantErr: true},
		{in: "-3", wantErr: true},
	}
	for _, tt := range tests {
		got, err := parseShots(tt.in)
		if tt.wantErr {
			if err == nil {
				t.Errorf("parseShots(%q): expected error", tt.in)
			}
			continue
		}
		if err != nil {
			t.Errorf("parseShots(%q): %v", tt.in, err)
			continue
		}
		if len(got) != len(tt.want) {
			t.Errorf("parseShots(%q) = %v; want %v", tt.in, got, tt.want)
			continue
		}
		for i := range got {
			if got[i] != tt.want[i] {
				t.Errorf("parseShots(%q) = %v; want %v", tt.in, got, tt.want)
				break
			}
		}
	}
}

// TestRunEndToEnd drives a quick FS-only Table I run with both
// observability outputs on: the live /metrics endpoint must serve
// Prometheus-parseable text and the -json report must be valid JSON with
// the run's metrics snapshot inside.
func TestRunEndToEnd(t *testing.T) {
	jsonPath := filepath.Join(t.TempDir(), "report.json")

	var metricsBody string
	scrapeForTest = func(addr string) {
		resp, err := http.Get("http://" + addr + "/metrics")
		if err != nil {
			t.Errorf("scrape /metrics: %v", err)
			return
		}
		defer resp.Body.Close()
		if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
			t.Errorf("content type = %q; want Prometheus text format 0.0.4", ct)
		}
		blob, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Errorf("read /metrics: %v", err)
			return
		}
		metricsBody = string(blob)

		vars, err := http.Get("http://" + addr + "/debug/vars")
		if err != nil {
			t.Errorf("scrape /debug/vars: %v", err)
			return
		}
		defer vars.Body.Close()
		if vars.StatusCode != http.StatusOK {
			t.Errorf("/debug/vars status = %d", vars.StatusCode)
		}
	}
	defer func() { scrapeForTest = nil }()

	var buf bytes.Buffer
	err := run([]string{
		"-exp", "table1", "-dataset", "5gc", "-scale", "quick",
		"-shots", "1", "-repeats", "1", "-methods", "FS (ours)",
		"-http", "127.0.0.1:0", "-json", jsonPath,
	}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	stdout := buf.String()
	if !strings.Contains(stdout, "serving metrics on http://") {
		t.Errorf("stdout missing serve banner:\n%s", stdout)
	}
	if !strings.Contains(stdout, "observability summary") || !strings.Contains(stdout, "CI tests:") {
		t.Errorf("stdout missing observability summary:\n%s", stdout)
	}

	// The scrape must have seen real pipeline metrics, in parseable shape.
	if !strings.Contains(metricsBody, "# TYPE netdrift_ci_tests_total counter") {
		t.Errorf("/metrics missing CI-test family:\n%s", metricsBody)
	}
	if !strings.Contains(metricsBody, `netdrift_ci_tests_total{kind="marginal"}`) {
		t.Errorf("/metrics missing marginal CI-test sample:\n%s", metricsBody)
	}
	for _, line := range strings.Split(strings.TrimSpace(metricsBody), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("unparseable metrics line %q", line)
		}
		if _, err := strconv.ParseFloat(line[sp+1:], 64); err != nil {
			t.Fatalf("metrics line %q: bad value: %v", line, err)
		}
	}

	// The JSON report must round-trip and carry results + metrics.
	blob, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	var rep report
	if err := json.Unmarshal(blob, &rep); err != nil {
		t.Fatalf("report is not valid JSON: %v", err)
	}
	if rep.Experiment != "table1" || rep.Dataset != "5gc" || rep.Scale != "quick" {
		t.Errorf("report header = %q/%q/%q", rep.Experiment, rep.Dataset, rep.Scale)
	}
	if rep.WallSecs <= 0 {
		t.Errorf("wall seconds = %v; want > 0", rep.WallSecs)
	}
	if _, ok := rep.Results["table1/5gc"]; !ok {
		t.Errorf("report missing table1/5gc results: %v", rep.Results)
	}
	var sawCI bool
	for _, s := range rep.Metrics {
		if s.Name == "netdrift_ci_tests_total" && s.Labels["kind"] == "marginal" && s.Value > 0 {
			sawCI = true
		}
	}
	if !sawCI {
		t.Error("report metrics snapshot missing marginal CI-test count")
	}
}
