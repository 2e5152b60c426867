package main

import (
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

// TestMkBundleAndLoadgen exercises the full binary surface at quick scale:
// fit + write a bundle, then run the load generator against it.
func TestMkBundleAndLoadgen(t *testing.T) {
	bundlePath := filepath.Join(t.TempDir(), "bundle.json")

	var out strings.Builder
	err := run([]string{
		"-mkbundle", "-bundle", bundlePath,
		"-dataset", "5gc", "-scale", "quick", "-seed", "3", "-shots", "10",
	}, &out)
	if err != nil {
		t.Fatalf("mkbundle: %v\n%s", err, out.String())
	}
	if _, err := os.Stat(bundlePath); err != nil {
		t.Fatal(err)
	}

	out.Reset()
	err = run([]string{
		"-loadgen", "-bundle", bundlePath,
		"-dataset", "5gc", "-scale", "quick", "-seed", "3",
		"-conns", "2", "-duration", "500ms", "-rows-per-req", "4",
	}, &out)
	if err != nil {
		t.Fatalf("loadgen: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "rows/s") {
		t.Errorf("loadgen output missing throughput:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "verdict: clean") {
		t.Errorf("loadgen output missing clean verdict line:\n%s", out.String())
	}
}

// TestMkBundleBinaryAndConvert covers the binary artifact path end to end:
// write a binary bundle, convert it to JSON and back, and check that the
// sniffing loader serves all three files identically via the loadgen's
// bit-identity audit.
func TestMkBundleBinaryAndConvert(t *testing.T) {
	dir := t.TempDir()
	binPath := filepath.Join(dir, "bundle.ndbf")
	jsonPath := filepath.Join(dir, "bundle.json")
	backPath := filepath.Join(dir, "bundle2.ndbf")

	var out strings.Builder
	err := run([]string{
		"-mkbundle", "-format", "binary", "-bundle", binPath,
		"-dataset", "5gc", "-scale", "quick", "-seed", "3", "-shots", "10",
	}, &out)
	if err != nil {
		t.Fatalf("mkbundle -format binary: %v\n%s", err, out.String())
	}
	blob, err := os.ReadFile(binPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(blob) < 4 || string(blob[:4]) != "NDBF" {
		t.Fatalf("binary bundle missing NDBF magic: % x", blob[:min(8, len(blob))])
	}

	out.Reset()
	if err := run([]string{"-convert", binPath, "-format", "json", "-bundle", jsonPath}, &out); err != nil {
		t.Fatalf("convert binary->json: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "converted") {
		t.Errorf("convert output missing confirmation:\n%s", out.String())
	}
	jsonBlob, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(jsonBlob) == 0 || jsonBlob[0] != '{' {
		t.Fatalf("converted JSON bundle does not look like JSON: % x", jsonBlob[:min(8, len(jsonBlob))])
	}

	out.Reset()
	if err := run([]string{"-convert", jsonPath, "-format", "binary", "-bundle", backPath}, &out); err != nil {
		t.Fatalf("convert json->binary: %v\n%s", err, out.String())
	}
	back, err := os.ReadFile(backPath)
	if err != nil {
		t.Fatal(err)
	}
	// The JSON round trip is lossless, so converting back reproduces the
	// original binary artifact byte for byte.
	if string(back) != string(blob) {
		t.Error("binary -> json -> binary did not round-trip byte-identically")
	}

	// The sniffing loader must serve the binary artifact: the loadgen's
	// verdict line asserts bit-identical output against the golden path.
	for _, bundle := range []string{binPath, jsonPath} {
		out.Reset()
		err = run([]string{
			"-loadgen", "-bundle", bundle,
			"-dataset", "5gc", "-scale", "quick", "-seed", "3",
			"-conns", "1", "-duration", "200ms", "-rows-per-req", "4",
		}, &out)
		if err != nil {
			t.Fatalf("loadgen on %s: %v\n%s", bundle, err, out.String())
		}
		if !strings.Contains(out.String(), "verdict: clean") {
			t.Errorf("loadgen on %s not clean:\n%s", bundle, out.String())
		}
	}
}

// TestLoadgenBinaryCodec drives the load generator over the binary wire
// codec and checks both the clean verdict and the cross-codec probe's
// bit-identity line.
func TestLoadgenBinaryCodec(t *testing.T) {
	bundlePath := mkTestBundle(t)
	var out strings.Builder
	err := run([]string{
		"-loadgen", "-codec", "binary", "-bundle", bundlePath,
		"-dataset", "5gc", "-scale", "quick", "-seed", "3",
		"-conns", "2", "-duration", "300ms", "-rows-per-req", "4",
	}, &out)
	if err != nil {
		t.Fatalf("loadgen -codec binary: %v\n%s", err, out.String())
	}
	text := out.String()
	if !strings.Contains(text, "codec binary") {
		t.Errorf("loadgen header missing codec binary:\n%s", text)
	}
	if !strings.Contains(text, "verdict: clean") {
		t.Errorf("binary loadgen not clean:\n%s", text)
	}
	if !strings.Contains(text, "cross-codec: bit-identical") {
		t.Errorf("missing cross-codec bit-identity line:\n%s", text)
	}
}

func TestRunBadCodecFlags(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-mkbundle", "-format", "msgpack"}, &out); err == nil {
		t.Error("expected unknown -format error")
	}
	if err := run([]string{"-loadgen", "-codec", "grpc"}, &out); err == nil {
		t.Error("expected unknown -codec error")
	}
	if err := run([]string{"-convert", "/does/not/exist.ndbf", "-bundle", filepath.Join(t.TempDir(), "o.json")}, &out); err == nil {
		t.Error("expected convert missing source error")
	}
}

// mkTestBundle writes a quick-scale bundle for the resilience CLI tests.
func mkTestBundle(t *testing.T) string {
	t.Helper()
	bundlePath := filepath.Join(t.TempDir(), "bundle.json")
	var out strings.Builder
	err := run([]string{
		"-mkbundle", "-bundle", bundlePath,
		"-dataset", "5gc", "-scale", "quick", "-seed", "3", "-shots", "10",
	}, &out)
	if err != nil {
		t.Fatalf("mkbundle: %v\n%s", err, out.String())
	}
	return bundlePath
}

// TestChaosCheck runs the chaos acceptance mode end to end: default fault
// storm, torn-response audit, recovery probe. It must report PASS and
// exit cleanly.
func TestChaosCheck(t *testing.T) {
	bundlePath := mkTestBundle(t)
	var out strings.Builder
	err := run([]string{
		"-chaoscheck", "-bundle", bundlePath,
		"-dataset", "5gc", "-scale", "quick", "-seed", "3",
		"-conns", "4", "-duration", "600ms", "-rows-per-req", "4",
		"-flightrec-snap", filepath.Join(t.TempDir(), "flightrec.json"),
	}, &out)
	if err != nil {
		t.Fatalf("chaoscheck: %v\n%s", err, out.String())
	}
	text := out.String()
	if !strings.Contains(text, "chaoscheck: PASS") {
		t.Errorf("missing PASS verdict:\n%s", text)
	}
	if !strings.Contains(text, "torn=0") {
		t.Errorf("verdict line missing torn=0:\n%s", text)
	}
	// The default storm injects hard enough that at least one degraded or
	// errored response should appear; a completely quiet run means the
	// faults never armed.
	if strings.Contains(text, "degraded=0 shed=0") && strings.Contains(text, "errors=0 timeouts=0") {
		t.Errorf("chaos storm had no visible effect:\n%s", text)
	}
}

// TestChaosCheckBadPlan rejects malformed -faults plans up front.
func TestChaosCheckBadPlan(t *testing.T) {
	var out strings.Builder
	err := run([]string{"-chaoscheck", "-faults", "batch.exec:rate=banana"}, &out)
	if err == nil || !strings.Contains(err.Error(), "-faults") {
		t.Errorf("bad plan error = %v, want -faults parse error", err)
	}
}

// syncWriter lets the drain test read serve output while runServe is
// still writing it from another goroutine.
type syncWriter struct {
	mu sync.Mutex
	b  strings.Builder
}

func (w *syncWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.b.Write(p)
}

func (w *syncWriter) String() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.b.String()
}

// TestServeGracefulDrain boots the real serve mode on a loopback port,
// confirms it answers /healthz, then delivers SIGTERM and expects a clean
// drained exit within the drain deadline.
func TestServeGracefulDrain(t *testing.T) {
	bundlePath := mkTestBundle(t)
	out := &syncWriter{}
	errCh := make(chan error, 1)
	go func() {
		errCh <- run([]string{
			"-bundle", bundlePath, "-addr", "127.0.0.1:0",
			"-drain-timeout", "5s",
		}, out)
	}()

	// Wait for the listen line, then hit /healthz.
	var addr string
	deadline := time.Now().Add(10 * time.Second)
	for addr == "" {
		if time.Now().After(deadline) {
			t.Fatalf("server never reported its address:\n%s", out.String())
		}
		text := out.String()
		if i := strings.Index(text, "http://"); i >= 0 {
			if j := strings.IndexAny(text[i:], " \n"); j > 0 {
				addr = text[i : i+j]
			}
		}
		select {
		case err := <-errCh:
			t.Fatalf("serve exited early: %v\n%s", err, out.String())
		case <-time.After(10 * time.Millisecond):
		}
	}
	res, err := http.Get(addr + "/healthz")
	if err != nil {
		t.Fatalf("healthz: %v", err)
	}
	res.Body.Close()
	if res.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", res.StatusCode)
	}

	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-errCh:
		if err != nil {
			t.Fatalf("drained exit returned %v\n%s", err, out.String())
		}
	case <-time.After(15 * time.Second):
		t.Fatalf("server did not drain after SIGTERM:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "drained, bye") {
		t.Errorf("missing drain confirmation:\n%s", out.String())
	}
}

func TestRunBadFlags(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-scale", "nope"}, &out); err == nil {
		t.Error("expected unknown scale error")
	}
	if err := run([]string{"-bundle", "/does/not/exist.json"}, &out); err == nil {
		t.Error("expected missing bundle error")
	}
}

// TestCtrlCheck runs the closed-loop drift-response acceptance mode end to
// end: detect -> refit -> gate -> hot-swap -> chaos -> rollback -> resume.
func TestCtrlCheck(t *testing.T) {
	if testing.Short() {
		t.Skip("ctrlcheck fits real adapters; skipped in -short")
	}
	var out strings.Builder
	err := run([]string{
		"-ctrlcheck", "-dataset", "5gc", "-scale", "quick", "-seed", "1",
		"-shots", "10", "-rows-per-req", "4",
		"-flightrec-snap", filepath.Join(t.TempDir(), "flightrec.json"),
	}, &out)
	if err != nil {
		t.Fatalf("ctrlcheck: %v\n%s", err, out.String())
	}
	text := out.String()
	if !strings.Contains(text, "ctrlcheck: PASS phases=A,B,C,D,E") {
		t.Errorf("missing full-phase PASS verdict:\n%s", text)
	}
	if !strings.Contains(text, "netdrift_ctrl_drift_to_recovery_seconds") {
		t.Errorf("drift-to-recovery metric not scraped from /metrics:\n%s", text)
	}
	if !strings.Contains(text, `netdrift_ctrl_refit_seconds_bucket{le="+Inf"}`) {
		t.Errorf("refit-seconds histogram bucket not scraped from /metrics:\n%s", text)
	}
}

// TestFaultPlanUnknownSite: a typo'd chaos site must be rejected up front
// with the known-site list, not silently armed as a no-op.
func TestFaultPlanUnknownSite(t *testing.T) {
	var out strings.Builder
	err := run([]string{"-chaoscheck", "-faults", "bundel.load:err=1"}, &out)
	if err == nil || !strings.Contains(err.Error(), "bundel.load") {
		t.Fatalf("unknown site error = %v, want it named", err)
	}
	if !strings.Contains(err.Error(), "ctrl.refit") {
		t.Errorf("error should list known sites (ctrl.refit among them): %v", err)
	}
}
