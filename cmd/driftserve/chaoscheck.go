package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"netdrift/internal/core"
	"netdrift/internal/experiments"
	"netdrift/internal/serve"
)

// defaultChaosPlan is the fault storm used when -chaoscheck runs without
// an explicit -faults plan: enough errors, panics, and latency at both the
// executor and handler sites to exercise every degradation path.
const defaultChaosPlan = "batch.exec:err=0.15,panic=0.05,slow=500us@0.2;http.adapt:err=0.05,panic=0.02"

// runChaosCheck is the operational acceptance test behind `driftserve
// -chaoscheck`: it serves a bundle in-process, arms a deterministic fault
// storm, hammers the server with concurrent clients, and audits every
// single response byte-for-byte:
//
//   - 200 (adapted): must carry the expected bundle id and match the
//     precomputed golden adaptation of that exact request bit-for-bit.
//   - 200 (degraded): must echo the raw input rows exactly.
//   - 429: counted as shed (must carry Retry-After).
//   - 408/500: counted as timeouts/errors; bounded but expected under storm.
//
// Any other payload is a torn response and fails the check. After the
// storm the injector is cleared and the server must return to bit-identical
// golden output before the recovery deadline (one breaker probe after the
// backoff elapses). The verdict line is machine-greppable:
//
//	chaoscheck: PASS reqs=320 ok=204 degraded=78 shed=0 errors=30 timeouts=0 torn=0 recovered=12ms
func runChaosCheck(out io.Writer, cfg config) error {
	if cfg.FaultPlan == "" {
		cfg.FaultPlan = defaultChaosPlan
	}
	// Chaos acceptance wants small backoffs so recovery is probed within
	// the run, not after the default 100ms base backoff doubles a few
	// times. Honor explicit flags; shrink only the defaults.
	if cfg.BreakerBackoff == 100*time.Millisecond {
		cfg.BreakerBackoff = 2 * time.Millisecond
	}
	if cfg.BreakerMaxBackoff == 30*time.Second {
		cfg.BreakerMaxBackoff = 20 * time.Millisecond
	}
	o, reg, co, handler, inj, err := buildStack(cfg)
	if err != nil {
		return err
	}
	defer co.Close()
	// Load the bundle before arming load-site faults would matter; the
	// plan may also target bundle.load, in which case retries below ride
	// the breaker like production would.
	bundle, err := reg.LoadFile(cfg.Bundle)
	if err != nil {
		return err
	}
	pair, err := experiments.MakePair(cfg.Dataset, cfg.Scale, cfg.Seed)
	if err != nil {
		return err
	}
	rows := pair.TargetTest.X
	if len(rows) == 0 {
		return fmt.Errorf("dataset %q has no target test rows", cfg.Dataset)
	}

	// Fixed request shapes with goldens computed directly against the
	// bundle (no coalescer), the same reference the serve tests use. Each
	// shape carries both wire encodings so the storm (and the audit) covers
	// the JSON and binary codecs alike.
	type shape struct {
		raw     [][]float64
		golden  [][]float64
		body    []byte
		binBody []byte
	}
	nShapes := 4
	if len(rows) < nShapes*cfg.RowsPerReq {
		nShapes = 1
	}
	shapes := make([]shape, 0, nShapes)
	var scr core.AdaptScratch
	for s := 0; s < nShapes; s++ {
		raw := rows[s*cfg.RowsPerReq : (s+1)*cfg.RowsPerReq]
		seeds := make([]int64, len(raw))
		for i := range seeds {
			seeds[i] = core.SampleSeed(0, i)
		}
		outT, err := bundle.Adapter.AdaptBatch(raw, seeds, &scr)
		if err != nil {
			return fmt.Errorf("golden adaptation: %w", err)
		}
		golden := make([][]float64, outT.Rows())
		for i := range golden {
			golden[i] = append([]float64(nil), outT.Row(i)...)
		}
		body, err := json.Marshal(serve.AdaptRequest{Rows: raw})
		if err != nil {
			return err
		}
		shapes = append(shapes, shape{
			raw: raw, golden: golden, body: body,
			binBody: serve.AppendRowsRequest(nil, raw, 0, false),
		})
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: handler}
	go func() { _ = srv.Serve(ln) }()
	defer srv.Close()
	url := "http://" + ln.Addr().String() + "/v1/adapt"

	// --- The storm. ---
	fmt.Fprintf(out, "chaoscheck: bundle %q, %d conns for %s, plan %q\n",
		bundle.ID, cfg.Conns, cfg.Duration, cfg.FaultPlan)
	var reqs, ok, degraded, shed, errs, timeouts, torn atomic.Int64
	deadline := time.Now().Add(cfg.Duration)
	var wg sync.WaitGroup
	for c := 0; c < cfg.Conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			client := &http.Client{}
			for i := 0; time.Now().Before(deadline); i++ {
				sh := shapes[(c+i)%len(shapes)]
				// Alternate codecs per request so the storm interleaves
				// JSON and binary traffic through the same coalescer.
				binary := (c+i)%2 == 1
				body, contentType := sh.body, "application/json"
				if binary {
					body, contentType = sh.binBody, serve.ContentTypeRows
				}
				reqs.Add(1)
				res, err := client.Post(url, contentType, bytes.NewReader(body))
				if err != nil {
					errs.Add(1)
					continue
				}
				ar, decErr := decodeAdaptResponse(res, binary)
				switch res.StatusCode {
				case http.StatusOK:
					switch {
					case decErr != nil:
						torn.Add(1)
					case ar.Degraded:
						if identicalRows(ar.Rows, sh.raw) {
							degraded.Add(1)
						} else {
							torn.Add(1)
						}
					case ar.BundleID == bundle.ID && identicalRows(ar.Rows, sh.golden):
						ok.Add(1)
					default:
						torn.Add(1)
					}
				case http.StatusTooManyRequests:
					if res.Header.Get("Retry-After") == "" {
						torn.Add(1) // shed without backpressure guidance
					} else {
						shed.Add(1)
					}
				case http.StatusRequestTimeout:
					timeouts.Add(1)
				case http.StatusInternalServerError:
					errs.Add(1)
				default:
					torn.Add(1)
				}
			}
		}(c)
	}
	wg.Wait()

	// --- Recovery. ---
	// Both codecs must return to bit-identical golden output: the JSON
	// probe and the binary probe each gate the verdict, so a regression
	// that only breaks one wire format cannot slip through.
	inj.Clear()
	recoverStart := time.Now()
	recoverDeadline := recoverStart.Add(10 * time.Second)
	recovered := time.Duration(-1)
	probe := func(binary bool) (bool, bool) { // (golden, torn)
		body, contentType := shapes[0].body, "application/json"
		if binary {
			body, contentType = shapes[0].binBody, serve.ContentTypeRows
		}
		res, err := http.Post(url, contentType, bytes.NewReader(body))
		if err != nil {
			return false, false
		}
		ar, decErr := decodeAdaptResponse(res, binary)
		if decErr != nil || res.StatusCode != http.StatusOK || ar.Degraded {
			return false, false
		}
		// A healthy 200 that is not bit-identical golden is a torn response.
		golden := identicalRows(ar.Rows, shapes[0].golden)
		return golden, !golden
	}
	for time.Now().Before(recoverDeadline) {
		jsonGolden, jsonTorn := probe(false)
		if jsonTorn {
			torn.Add(1)
			break
		}
		if jsonGolden {
			binGolden, binTorn := probe(true)
			if binTorn {
				torn.Add(1)
				break
			}
			if binGolden {
				recovered = time.Since(recoverStart)
				break
			}
		}
		time.Sleep(time.Millisecond)
	}

	verdict := "PASS"
	var reasons []string
	if torn.Load() != 0 {
		verdict = "FAIL"
		reasons = append(reasons, fmt.Sprintf("%d torn responses", torn.Load()))
	}
	if ok.Load()+degraded.Load() == 0 {
		verdict = "FAIL"
		reasons = append(reasons, "no successful responses during the storm")
	}
	if recovered < 0 {
		verdict = "FAIL"
		reasons = append(reasons, "no bit-identical golden response after faults cleared")
	}
	fmt.Fprintf(out, "chaoscheck: %s reqs=%d ok=%d degraded=%d shed=%d errors=%d timeouts=%d torn=%d recovered=%s\n",
		verdict, reqs.Load(), ok.Load(), degraded.Load(), shed.Load(), errs.Load(), timeouts.Load(), torn.Load(),
		fmtRecovered(recovered))
	fmt.Fprintf(out, "  %s\n", inj.Summary())
	if verdict != "PASS" {
		// A failed acceptance run is exactly what the black box is for:
		// dump the flight ring (bypassing the incident throttle — this
		// write must not be suppressed by an earlier breaker snapshot) so
		// the fault/breaker/shed timeline that produced the failure
		// survives for `driftserve -obsdump`.
		if o.Flight != nil && cfg.FlightSnap != "" {
			if f, ferr := os.Create(cfg.FlightSnap); ferr == nil {
				if o.Flight.WriteSnapshot(f, "chaoscheck-fail") == nil {
					fmt.Fprintf(out, "  flight recorder dumped to %s\n", cfg.FlightSnap)
				}
				f.Close()
			}
		}
		return fmt.Errorf("chaoscheck failed: %v", reasons)
	}
	return nil
}

func fmtRecovered(d time.Duration) string {
	if d < 0 {
		return "never"
	}
	return d.Round(time.Millisecond).String()
}
