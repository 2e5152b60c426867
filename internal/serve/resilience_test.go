package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"netdrift/internal/fault"
	"netdrift/internal/obs"
)

// fastBreaker keeps chaos tests snappy: trips on the first failure and
// reopens within a few milliseconds.
func fastBreaker() BreakerConfig {
	return BreakerConfig{FailThreshold: 1, BaseBackoff: 5 * time.Millisecond, MaxBackoff: 20 * time.Millisecond, Seed: 1}
}

func postAdapt(t *testing.T, url string, body string) (*http.Response, AdaptResponse) {
	t.Helper()
	res, err := http.Post(url+"/v1/adapt", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	var ar AdaptResponse
	_ = json.NewDecoder(res.Body).Decode(&ar)
	return res, ar
}

// TestAdaptRequestValidation covers the API-boundary checks: wrong
// feature-vector widths and non-finite inputs must return field-level
// 400s instead of flowing into the kernels.
func TestAdaptRequestValidation(t *testing.T) {
	a, _, rows := fixtures(t)
	reg := NewRegistry(nil)
	reg.Swap(a)
	co := NewCoalescer(reg, Options{MaxBatch: 8})
	defer co.Close()
	ts := httptest.NewServer(NewServer(reg, co, nil))
	defer ts.Close()

	goodRow, _ := json.Marshal(rows[0])
	cases := []struct {
		name    string
		body    string
		status  int
		errPart string
	}{
		{"ok", fmt.Sprintf(`{"rows":[%s]}`, goodRow), http.StatusOK, ""},
		{"short row", `{"rows":[[1,2]]}`, http.StatusBadRequest, "rows[0]: 2 features, want 4"},
		{"long row", fmt.Sprintf(`{"rows":[%s,[1,2,3,4,5]]}`, goodRow), http.StatusBadRequest, "rows[1]: 5 features, want 4"},
		{"nan", `{"rows":[[1,2,NaN,4]]}`, http.StatusBadRequest, "decode request"}, // not even JSON
		{"nan via null-free float", `{"rows":[[1,2,1e999,4]]}`, http.StatusBadRequest, ""},
		{"empty rows", `{"rows":[]}`, http.StatusBadRequest, "rows must not be empty"},
		{"no body", `{}`, http.StatusBadRequest, "rows must not be empty"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res, err := http.Post(ts.URL+"/v1/adapt", "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			var blob bytes.Buffer
			blob.ReadFrom(res.Body)
			res.Body.Close()
			if res.StatusCode != tc.status {
				t.Fatalf("status %d, want %d (body %s)", res.StatusCode, tc.status, blob.String())
			}
			if tc.errPart != "" && !strings.Contains(blob.String(), tc.errPart) {
				t.Errorf("error body %q missing %q", blob.String(), tc.errPart)
			}
		})
	}

	// Non-finite values that survive JSON decoding (crafted request
	// struct) are caught by validateRows directly.
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		bad := [][]float64{{1, 2, v, 4}}
		body, _ := json.Marshal(map[string]any{"rows": bad})
		_ = body // json.Marshal refuses NaN/Inf; exercise the validator in-process instead
		srv := NewServer(reg, co, nil)
		if err := srv.validateRows(bad); err == nil || !strings.Contains(err.Error(), "rows[0][2]") {
			t.Errorf("validateRows(%v) = %v, want rows[0][2] non-finite error", v, err)
		}
	}
}

// TestSubmitRowWidthGuard covers the same malformed input arriving via
// direct Submit (no HTTP validation): the bad request fails alone with
// ErrRowWidth; it neither poisons batchmates nor trips the breaker.
func TestSubmitRowWidthGuard(t *testing.T) {
	a, _, rows := fixtures(t)
	reg := NewRegistry(nil)
	reg.Swap(a)
	co := NewCoalescer(reg, Options{MaxBatch: 8})
	defer co.Close()

	if _, err := co.Submit(context.Background(), [][]float64{{1, 2}}, 0, false, nil); !errors.Is(err, ErrRowWidth) {
		t.Fatalf("short row: err = %v, want ErrRowWidth", err)
	}
	res, err := co.Submit(context.Background(), rows[:2], 0, false, nil)
	if err != nil || res.Degraded {
		t.Fatalf("well-formed request after bad one: res=%+v err=%v", res, err)
	}
	if !sameRowsBits(res.Rows, adaptWith(t, a, rows[:2], 0)) {
		t.Error("well-formed request not served golden after width failure")
	}
}

// TestAdmissionControlSheds fills the queue behind a wedged executor and
// checks excess load is refused with ErrOverloaded / HTTP 429 +
// Retry-After, and that the shed counter advances.
func TestAdmissionControlSheds(t *testing.T) {
	a, _, rows := fixtures(t)
	o := obs.New()
	inj := fault.New(1)
	// Wedge the single worker: every batch sleeps 200ms.
	inj.Set(FaultSiteExec, fault.Spec{SlowRate: 1, SlowFor: 200 * time.Millisecond})
	reg := NewRegistry(o)
	reg.Swap(a)
	co := NewCoalescer(reg, Options{
		MaxBatch: 1, Workers: 1, MaxQueue: 4,
		Faults: inj, Obs: o, Breaker: BreakerConfig{FailThreshold: 1 << 30},
	})
	defer co.Close()
	ts := httptest.NewServer(NewServer(reg, co, o))
	defer ts.Close()

	// Saturate: the worker takes one row (queue released on pickup), so
	// pushing MaxQueue+worker+1 singles guarantees at least one shed.
	type done struct {
		status int
		retry  string
	}
	rowBlob, _ := json.Marshal(rows[0])
	body := fmt.Sprintf(`{"rows":[%s]}`, rowBlob)
	const inflight = 12
	ch := make(chan done, inflight)
	for i := 0; i < inflight; i++ {
		go func() {
			res, err := http.Post(ts.URL+"/v1/adapt", "application/json", strings.NewReader(body))
			if err != nil {
				ch <- done{status: -1}
				return
			}
			res.Body.Close()
			ch <- done{status: res.StatusCode, retry: res.Header.Get("Retry-After")}
		}()
	}
	var ok, shed int
	for i := 0; i < inflight; i++ {
		d := <-ch
		switch d.status {
		case http.StatusOK:
			ok++
		case http.StatusTooManyRequests:
			shed++
			if d.retry == "" {
				t.Error("429 without Retry-After header")
			}
		default:
			t.Errorf("unexpected status %d", d.status)
		}
	}
	if shed == 0 {
		t.Fatalf("no request shed (%d ok) despite MaxQueue 4 and 12 in flight", ok)
	}
	if v, okv := o.Registry.Value(obs.MetricServeShed); !okv || v != float64(shed) {
		t.Errorf("shed counter = %v, want %d", v, shed)
	}
}

// TestDegradedPassthroughAndRecovery is the core degradation contract:
// with the executor failing, /v1/adapt serves raw rows with
// degraded:true (not errors); /healthz reports degraded; once faults
// stop, the first half-open probe restores bit-identical golden output.
func TestDegradedPassthroughAndRecovery(t *testing.T) {
	a, _, rows := fixtures(t)
	o := obs.New()
	inj := fault.New(5)
	reg := NewRegistry(o)
	reg.Swap(a)
	co := NewCoalescer(reg, Options{MaxBatch: 8, Workers: 1, Obs: o, Faults: inj, Breaker: fastBreaker()})
	defer co.Close()
	ts := httptest.NewServer(NewServer(reg, co, o))
	defer ts.Close()

	golden := adaptWith(t, a, rows[:4], 0)
	rowsBlob, _ := json.Marshal(rows[:4])
	body := fmt.Sprintf(`{"rows":%s}`, rowsBlob)

	// Healthy first: golden path.
	res, ar := postAdapt(t, ts.URL, body)
	if res.StatusCode != http.StatusOK || ar.Degraded || !sameRowsBits(ar.Rows, golden) {
		t.Fatalf("healthy response status=%d degraded=%v golden=%v", res.StatusCode, ar.Degraded, sameRowsBits(ar.Rows, golden))
	}

	// Break the executor: every batch errors.
	inj.Set(FaultSiteExec, fault.Spec{ErrRate: 1})
	sawDegraded := 0
	for i := 0; i < 6; i++ {
		res, ar := postAdapt(t, ts.URL, body)
		if res.StatusCode != http.StatusOK {
			t.Fatalf("degraded request %d: status %d, want 200 passthrough", i, res.StatusCode)
		}
		if !ar.Degraded {
			t.Fatalf("request %d under total executor failure not degraded", i)
		}
		if !sameRowsBits(ar.Rows, rows[:4]) {
			t.Fatalf("degraded response does not echo raw input rows")
		}
		sawDegraded++
	}

	// Health reflects it.
	hres, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var h HealthReport
	json.NewDecoder(hres.Body).Decode(&h)
	hres.Body.Close()
	if hres.StatusCode != http.StatusOK || h.Status != HealthDegraded {
		t.Errorf("healthz status=%d report=%+v, want 200/degraded", hres.StatusCode, h.Status)
	}
	if h.Components.Executor.State == BreakerClosed {
		t.Errorf("executor component = %+v, want tripped", h.Components.Executor)
	}

	// Faults stop: within the breaker backoff plus one probe, the golden
	// path must return.
	inj.Clear()
	deadline := time.Now().Add(5 * time.Second)
	recovered := false
	for time.Now().Before(deadline) {
		res, ar := postAdapt(t, ts.URL, body)
		if res.StatusCode == http.StatusOK && !ar.Degraded {
			if !sameRowsBits(ar.Rows, golden) {
				t.Fatal("post-recovery response is not bit-identical to golden")
			}
			recovered = true
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	if !recovered {
		t.Fatal("server did not recover to golden output after faults stopped")
	}
	if v, _ := o.Registry.Value(obs.MetricServeDegraded); v < float64(sawDegraded) {
		t.Errorf("degraded counter = %v, want >= %d", v, sawDegraded)
	}
	// healthz back to ok.
	hres2, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var h2 HealthReport
	json.NewDecoder(hres2.Body).Decode(&h2)
	hres2.Body.Close()
	if h2.Status != HealthOK {
		t.Errorf("healthz after recovery = %q, want ok", h2.Status)
	}
}

// TestExecutorPanicIsA500AndWorkerSurvives injects a panic into the batch
// executor: the in-flight request fails with 500, the recovered-panic
// counter advances, and the worker loop keeps serving afterwards.
func TestExecutorPanicIsA500AndWorkerSurvives(t *testing.T) {
	a, _, rows := fixtures(t)
	o := obs.New()
	inj := fault.New(9)
	inj.Set(FaultSiteExec, fault.Spec{PanicRate: 1})
	reg := NewRegistry(o)
	reg.Swap(a)
	co := NewCoalescer(reg, Options{MaxBatch: 8, Workers: 1, Obs: o, Faults: inj, Breaker: fastBreaker()})
	defer co.Close()
	// The breaker's clock stands still until the recovery loop, so the
	// degraded request below lands inside the open backoff however slowly
	// the host runs it.
	clk := &fakeClock{t: time.Unix(1000, 0)}
	co.execBreaker.now = clk.now
	ts := httptest.NewServer(NewServer(reg, co, o))
	defer ts.Close()

	rowsBlob, _ := json.Marshal(rows[:2])
	body := fmt.Sprintf(`{"rows":%s}`, rowsBlob)
	res, _ := postAdapt(t, ts.URL, body)
	if res.StatusCode != http.StatusInternalServerError {
		t.Fatalf("panicked batch: status %d, want 500", res.StatusCode)
	}
	if v, ok := o.Registry.Value(obs.MetricServePanics, "site", "executor"); !ok || v != 1 {
		t.Errorf("recovered executor panics = %v, want 1", v)
	}
	// Worker must still be alive: with the breaker now open, requests are
	// served degraded rather than hanging.
	res2, ar2 := postAdapt(t, ts.URL, body)
	if res2.StatusCode != http.StatusOK || !ar2.Degraded {
		t.Fatalf("post-panic request status=%d degraded=%v, want degraded passthrough", res2.StatusCode, ar2.Degraded)
	}
	// And after faults stop and the backoff has passed, it fully recovers.
	inj.Clear()
	clk.advance(time.Second) // past fastBreaker's longest jittered backoff
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		res, ar := postAdapt(t, ts.URL, body)
		if res.StatusCode == http.StatusOK && !ar.Degraded {
			if !sameRowsBits(ar.Rows, adaptWith(t, a, rows[:2], 0)) {
				t.Fatal("post-panic recovery output not golden")
			}
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("worker did not recover after injected panics stopped")
}

// TestHandlerPanicRecoveryMiddleware injects a panic at the HTTP handler
// site: the response is a 500, the process survives, and the next request
// succeeds.
func TestHandlerPanicRecoveryMiddleware(t *testing.T) {
	a, _, rows := fixtures(t)
	o := obs.New()
	inj := fault.New(11)
	inj.Set(FaultSiteHandler, fault.Spec{PanicRate: 1})
	reg := NewRegistry(o)
	reg.Swap(a)
	co := NewCoalescer(reg, Options{MaxBatch: 8, Obs: o, Faults: inj})
	defer co.Close()
	ts := httptest.NewServer(NewServer(reg, co, o))
	defer ts.Close()

	rowsBlob, _ := json.Marshal(rows[:1])
	body := fmt.Sprintf(`{"rows":%s}`, rowsBlob)
	res, _ := postAdapt(t, ts.URL, body)
	if res.StatusCode != http.StatusInternalServerError {
		t.Fatalf("handler panic: status %d, want 500", res.StatusCode)
	}
	if v, ok := o.Registry.Value(obs.MetricServePanics, "site", "handler"); !ok || v != 1 {
		t.Errorf("recovered handler panics = %v, want 1", v)
	}
	inj.Clear()
	res2, ar := postAdapt(t, ts.URL, body)
	if res2.StatusCode != http.StatusOK || ar.Degraded {
		t.Fatalf("request after handler panic: status=%d degraded=%v", res2.StatusCode, ar.Degraded)
	}
}

// TestBundleLoadCircuitBreaker points LoadFile at a corrupt file: after
// FailThreshold failures the breaker fails fast (no re-parse per call),
// the already-installed bundle keeps serving, and /v1/adapt degrades to
// passthrough when no bundle is installed at all.
func TestBundleLoadCircuitBreaker(t *testing.T) {
	a, _, rows := fixtures(t)
	dir := t.TempDir()
	corrupt := filepath.Join(dir, "corrupt.json")
	if err := os.WriteFile(corrupt, []byte(`{"format_version":1,"id":"x","adapter":{`), 0o644); err != nil {
		t.Fatal(err)
	}
	o := obs.New()
	reg := NewRegistry(o)
	reg.SetBreaker(NewBreaker("bundle_load", BreakerConfig{FailThreshold: 2, BaseBackoff: time.Hour, MaxBackoff: time.Hour}, o))
	reg.Swap(a) // a good bundle is already live

	for i := 0; i < 2; i++ {
		if _, err := reg.LoadFile(corrupt); err == nil || errors.Is(err, ErrBreakerOpen) {
			t.Fatalf("load %d: err = %v, want a parse error", i, err)
		}
	}
	// Breaker now open: fail fast without touching the file.
	loadsBefore, _ := o.Registry.Value(obs.MetricServeBundleLoads)
	for i := 0; i < 5; i++ {
		if _, err := reg.LoadFile(corrupt); !errors.Is(err, ErrBreakerOpen) {
			t.Fatalf("broken load %d: err = %v, want ErrBreakerOpen", i, err)
		}
	}
	if loadsAfter, _ := o.Registry.Value(obs.MetricServeBundleLoads); loadsAfter != loadsBefore {
		t.Errorf("open breaker still performed %v loads", loadsAfter-loadsBefore)
	}
	// The live bundle is untouched and keeps serving golden.
	if reg.Current() != a {
		t.Fatal("failed loads disturbed the installed bundle")
	}
	co := NewCoalescer(reg, Options{MaxBatch: 8})
	defer co.Close()
	res, err := co.Submit(context.Background(), rows[:2], 0, false, nil)
	if err != nil || res.Degraded {
		t.Fatalf("serving with open load breaker but live bundle: res=%+v err=%v", res, err)
	}

	// With no bundle installed and the load breaker open, requests degrade
	// to passthrough instead of 503ing.
	reg2 := NewRegistry(nil)
	reg2.SetBreaker(NewBreaker("bundle_load", BreakerConfig{FailThreshold: 1, BaseBackoff: time.Hour, MaxBackoff: time.Hour}, nil))
	if _, err := reg2.LoadFile(corrupt); err == nil {
		t.Fatal("corrupt load succeeded")
	}
	co2 := NewCoalescer(reg2, Options{MaxBatch: 8})
	defer co2.Close()
	res2, err := co2.Submit(context.Background(), rows[:2], 0, false, nil)
	if err != nil || !res2.Degraded {
		t.Fatalf("no bundle + open breaker: res=%+v err=%v, want degraded passthrough", res2, err)
	}
	if !sameRowsBits(res2.Rows, rows[:2]) {
		t.Error("degraded passthrough did not echo raw rows")
	}
	// Recovery: fix the file, advance past the backoff via a fresh breaker
	// probe — here we just install a short-backoff breaker and verify a
	// good file closes it.
	good := filepath.Join(dir, "good.json")
	if err := WriteBundleFileFormat(good, a.ID, a.Adapter, a.Classifier, FormatJSON); err != nil {
		t.Fatal(err)
	}
	reg3 := NewRegistry(nil)
	br := NewBreaker("bundle_load", BreakerConfig{FailThreshold: 1, BaseBackoff: time.Millisecond, MaxBackoff: time.Millisecond}, nil)
	reg3.SetBreaker(br)
	if _, err := reg3.LoadFile(corrupt); err == nil {
		t.Fatal("corrupt load succeeded")
	}
	time.Sleep(5 * time.Millisecond) // let the backoff elapse
	if _, err := reg3.LoadFile(good); err != nil {
		t.Fatalf("half-open probe with good file: %v", err)
	}
	if br.Status().State != BreakerClosed {
		t.Errorf("breaker after good probe = %+v, want closed", br.Status())
	}
}

// TestResilienceMetricsExposition runs a short fault storm and asserts
// every resilience family renders in the Prometheus exposition.
func TestResilienceMetricsExposition(t *testing.T) {
	a, _, rows := fixtures(t)
	o := obs.New()
	inj := fault.New(13)
	inj.Set(FaultSiteExec, fault.Spec{ErrRate: 1})
	reg := NewRegistry(o)
	reg.Swap(a)
	co := NewCoalescer(reg, Options{MaxBatch: 4, Workers: 1, Obs: o, Faults: inj, Breaker: fastBreaker()})
	defer co.Close()
	ts := httptest.NewServer(NewServer(reg, co, o))
	defer ts.Close()

	rowsBlob, _ := json.Marshal(rows[:2])
	body := fmt.Sprintf(`{"rows":%s}`, rowsBlob)
	for i := 0; i < 3; i++ {
		res, _ := postAdapt(t, ts.URL, body)
		if res.StatusCode != http.StatusOK {
			t.Fatalf("degraded request status %d", res.StatusCode)
		}
	}
	mres, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	buf := make([]byte, 64<<10)
	for {
		n, rerr := mres.Body.Read(buf)
		sb.Write(buf[:n])
		if rerr != nil {
			break
		}
	}
	mres.Body.Close()
	text := sb.String()
	for _, want := range []string{
		"# TYPE " + obs.MetricServeDegraded + " counter",
		obs.MetricServeDegraded + " ",
		"# TYPE " + obs.MetricServeBreakerTransitions + " counter",
		obs.MetricServeBreakerTransitions + `{breaker="executor",to="open"}`,
		obs.MetricServeRequests + `{outcome="degraded"}`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}
