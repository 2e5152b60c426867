package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"netdrift/internal/experiments"
	"netdrift/internal/obs"
	"netdrift/internal/serve"
)

// runLoadgen drives a closed-loop HTTP load generator against an
// in-process server: -conns clients hammer it over loopback for -duration,
// and it reports request throughput, latency quantiles and the verdict
// line, the end-to-end picture including the codec, HTTP and coalescing.
// Before the server closes, one probe request goes through both wire
// codecs; their responses must match bit for bit or the run fails.
func runLoadgen(out io.Writer, cfg config) error {
	_, reg, co, handler, _, err := buildStack(cfg)
	if err != nil {
		return err
	}
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

	// --- Part 1: closed-loop HTTP load. ---
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: handler}
	go func() { _ = srv.Serve(ln) }()
	url := "http://" + ln.Addr().String() + "/v1/adapt"

	binaryCodec := cfg.Codec == codecBinary
	contentType := "application/json"
	if binaryCodec {
		contentType = serve.ContentTypeRows
	}
	latency := obs.NewFixedHistogram(obs.LatencyBuckets)
	// Client-side rolling RED tracker: the caller's view of the SLO, fed
	// the same objective the server burns against. One window wide enough
	// to cover the whole run, so the verdict quantiles summarize everything.
	red := obs.NewSLOSet(cfg.slo(), cfg.Duration+time.Minute, 0, nil)
	var requests, servedRows, degraded, shed, timeouts, failures atomic.Int64
	deadline := time.Now().Add(cfg.Duration)
	var wg sync.WaitGroup
	for c := 0; c < cfg.Conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			client := &http.Client{}
			// Each client cycles through a different window of the test
			// set so coalesced batches mix distinct rows.
			pos := (c * 131) % len(rows)
			for time.Now().Before(deadline) {
				batch := make([][]float64, 0, cfg.RowsPerReq)
				for len(batch) < cfg.RowsPerReq {
					batch = append(batch, rows[pos])
					pos = (pos + 1) % len(rows)
				}
				var body []byte
				if binaryCodec {
					body = serve.AppendRowsRequest(nil, batch, 0, false)
				} else {
					body, _ = json.Marshal(serve.AdaptRequest{Rows: batch})
				}
				start := time.Now()
				res, err := client.Post(url, contentType, bytes.NewReader(body))
				if err != nil {
					failures.Add(1)
					red.Observe(serve.EndpointAdapt, time.Since(start).Seconds(), true)
					continue
				}
				ar, decErr := decodeAdaptResponse(res, binaryCodec)
				secs := time.Since(start).Seconds()
				latency.Observe(secs)
				isErr := false
				switch {
				case res.StatusCode == http.StatusOK && decErr == nil && ar.Degraded:
					degraded.Add(1)
				case res.StatusCode == http.StatusOK:
					requests.Add(1)
					servedRows.Add(int64(len(batch)))
				case res.StatusCode == http.StatusTooManyRequests:
					shed.Add(1)
					isErr = true
				case res.StatusCode == http.StatusRequestTimeout:
					timeouts.Add(1)
					isErr = true
				default:
					failures.Add(1)
					isErr = true
				}
				red.Observe(serve.EndpointAdapt, secs, isErr)
			}
		}(c)
	}
	wg.Wait()

	// The probe runs against the still-live server so both codecs ride the
	// full HTTP + coalescer path the clients just used.
	probeErr := crossCodecProbe(url, rows[:min(cfg.RowsPerReq, len(rows))])
	srv.Close()
	co.Close()

	secs := cfg.Duration.Seconds()
	reqRate := float64(requests.Load()) / secs
	rowRate := float64(servedRows.Load()) / secs
	total := requests.Load() + degraded.Load() + shed.Load() + timeouts.Load() + failures.Load()
	fmt.Fprintf(out, "loadgen: bundle %q, %d conns, %s, %d rows/req, codec %s (max-batch %d, workers %d, max-queue %d)\n",
		bundle.ID, cfg.Conns, cfg.Duration, cfg.RowsPerReq, cfg.Codec, cfg.MaxBatch, cfg.Workers, cfg.MaxQueue)
	fmt.Fprintf(out, "  %d requests ok, %d failed  |  %.0f req/s, %.0f rows/s\n",
		requests.Load(), failures.Load(), reqRate, rowRate)
	fmt.Fprintf(out, "  latency p50 %.2fms  p90 %.2fms  p99 %.2fms\n",
		latency.Quantile(0.5)*1e3, latency.Quantile(0.9)*1e3, latency.Quantile(0.99)*1e3)
	// The verdict line gives operators the resilience picture at a glance:
	// every request accounted for as ok / degraded / shed / timeout / error.
	verdict := "clean"
	if failures.Load() > 0 {
		verdict = "errors"
	} else if degraded.Load()+shed.Load()+timeouts.Load() > 0 {
		verdict = "lossy"
	}
	// The rolling-window view: client-observed quantiles plus the burn rate
	// against the configured SLO (1.0 = burning the whole error budget).
	stats := red.Tracker(serve.EndpointAdapt).Stats(cfg.Duration + time.Minute)
	fmt.Fprintf(out, "  verdict: %s  total=%d ok=%d degraded=%d shed=%d timeouts=%d errors=%d  p50=%.2fms p95=%.2fms p99=%.2fms burn=%.2f\n",
		verdict, total, requests.Load(), degraded.Load(), shed.Load(), timeouts.Load(), failures.Load(),
		stats.P50Seconds*1e3, stats.P95Seconds*1e3, stats.P99Seconds*1e3, stats.BurnRate)
	if probeErr != nil {
		return fmt.Errorf("cross-codec probe: %w", probeErr)
	}
	fmt.Fprintln(out, "  cross-codec: bit-identical (bundle, rows and predictions of one seed-7 probe over json and binary)")
	if requests.Load() == 0 {
		return fmt.Errorf("loadgen completed zero golden-path requests")
	}
	return nil
}

// decodeAdaptResponse reads one /v1/adapt response in either codec into
// the common AdaptResponse shape.
func decodeAdaptResponse(res *http.Response, binary bool) (serve.AdaptResponse, error) {
	defer func() {
		io.Copy(io.Discard, res.Body)
		res.Body.Close()
	}()
	// Error responses are JSON in both codecs; only parse binary on a
	// binary-typed 200.
	if binary && res.StatusCode == http.StatusOK {
		body, err := io.ReadAll(res.Body)
		if err != nil {
			return serve.AdaptResponse{}, err
		}
		return serve.DecodeRowsResponse(body)
	}
	var ar serve.AdaptResponse
	err := json.NewDecoder(res.Body).Decode(&ar)
	return ar, err
}

// crossCodecProbe sends one request (the probe rows, seed 7, predict)
// through the JSON codec and through the binary one, and returns an error
// unless both responses carry the same bundle ID, rows and predictions,
// bit for bit.
func crossCodecProbe(url string, probe [][]float64) error {
	client := &http.Client{}
	jsonBody, _ := json.Marshal(serve.AdaptRequest{Rows: probe, Seed: 7, Predict: true})
	jres, err := client.Post(url, "application/json", bytes.NewReader(jsonBody))
	if err != nil {
		return err
	}
	jar, err := decodeAdaptResponse(jres, false)
	if err != nil {
		return fmt.Errorf("json response: %w", err)
	}
	bres, err := client.Post(url, serve.ContentTypeRows,
		bytes.NewReader(serve.AppendRowsRequest(nil, probe, 7, true)))
	if err != nil {
		return err
	}
	bar, err := decodeAdaptResponse(bres, true)
	if err != nil {
		return fmt.Errorf("binary response: %w", err)
	}
	switch {
	case jres.StatusCode != http.StatusOK || bres.StatusCode != http.StatusOK:
		return fmt.Errorf("status json %d, binary %d", jres.StatusCode, bres.StatusCode)
	case len(jar.Rows) != len(probe):
		return fmt.Errorf("%d rows back, sent %d", len(jar.Rows), len(probe))
	case jar.BundleID != bar.BundleID:
		return fmt.Errorf("bundle %q over json, %q over binary", jar.BundleID, bar.BundleID)
	case !identicalRows(jar.Rows, bar.Rows):
		return fmt.Errorf("adapted rows differ between json and binary")
	case !identicalRows(jar.Predictions, bar.Predictions):
		return fmt.Errorf("predictions differ between json and binary")
	}
	return nil
}

// identicalRows compares two matrices bit for bit, so -0 and +0 differ.
func identicalRows(a, b [][]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if math.Float64bits(a[i][j]) != math.Float64bits(b[i][j]) {
				return false
			}
		}
	}
	return true
}
