package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strings"
	"time"

	"netdrift/internal/obs"
)

// AdaptRequest is the POST /v1/adapt payload.
type AdaptRequest struct {
	// Rows are raw (unscaled) target-domain feature rows.
	Rows [][]float64 `json:"rows"`
	// Seed scopes the generator noise for this request. Zero (the
	// default) pins the paper's M=1 inference draw; any other value gives
	// a reproducible per-row Gaussian draw via core.SampleSeed.
	Seed int64 `json:"seed,omitempty"`
	// Predict asks for downstream class probabilities when the bundle
	// ships a classifier.
	Predict bool `json:"predict,omitempty"`
}

// AdaptResponse is the POST /v1/adapt reply.
type AdaptResponse struct {
	BundleID    string      `json:"bundle_id"`
	Rows        [][]float64 `json:"rows"`
	Predictions [][]float64 `json:"predictions,omitempty"`
	// Degraded marks a passthrough response: the adapter was unhealthy,
	// so Rows echoes the raw input features (see the degradation contract
	// in DESIGN §5e). Absent on the golden path, keeping healthy
	// responses byte-identical to pre-resilience serving.
	Degraded bool `json:"degraded,omitempty"`
}

// Endpoint names used as SLO tracker keys.
const (
	EndpointAdapt  = "/v1/adapt"
	EndpointHealth = "/healthz"
)

// Server wires the coalescer, registry, and observer into an http.Handler.
// Every request runs inside panic-recovery middleware: a handler panic
// (chaos-injected or real) is converted into a 500 without taking the
// process or the coalescer down.
type Server struct {
	reg *Registry
	co  *Coalescer
	o   *obs.Observer
	mux *http.ServeMux

	slo         *obs.SLOSet
	burnWindows []time.Duration

	ingest     IngestSink // nil: /v1/ingest answers 503
	ctrlStatus func() any // nil: no controller section on /v1/status
}

// NewServer builds the serving handler tree. o may be nil (metrics off,
// /metrics then reports an empty registry). The SLO layer starts with the
// default objective (250ms latency, 99.9% availability) over the default
// burn windows; ConfigureSLO overrides both before serving.
func NewServer(reg *Registry, co *Coalescer, o *obs.Observer) *Server {
	s := &Server{reg: reg, co: co, o: o, mux: http.NewServeMux()}
	s.ConfigureSLO(obs.SLO{})
	s.mux.HandleFunc("POST /v1/adapt", s.handleAdapt)
	s.mux.HandleFunc("POST /v1/ingest", s.handleIngest)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /v1/status", s.handleStatus)
	s.mux.HandleFunc("GET /debug/flightrec", s.handleFlightRec)
	return s
}

// ConfigureSLO replaces the SLO objective and burn-rate windows (defaults
// when none given). Call before serving starts; the tracker ring is sized
// to cover the longest window.
func (s *Server) ConfigureSLO(slo obs.SLO, burnWindows ...time.Duration) {
	if len(burnWindows) == 0 {
		burnWindows = obs.DefaultBurnWindows
	}
	longest := burnWindows[0]
	for _, w := range burnWindows {
		if w > longest {
			longest = w
		}
	}
	s.slo = obs.NewSLOSet(slo, longest, 0, nil)
	s.burnWindows = burnWindows
}

// SLOSet exposes the rolling RED trackers (for chaos wiring and tests).
func (s *Server) SLOSet() *obs.SLOSet { return s.slo }

// ServeHTTP implements http.Handler with panic recovery around the whole
// handler tree.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	defer func() {
		if rec := recover(); rec != nil {
			s.o.Counter(obs.MetricServePanics, "site", "handler").Inc()
			s.o.FlightRecord(obs.FlightKindPanic, "handler", traceFromRequest(r), fmt.Sprintf("%v", rec))
			// If the handler already started the response this write is a
			// no-op; the client sees a truncated body, never a torn one.
			httpError(w, http.StatusInternalServerError, fmt.Sprintf("internal panic: %v", rec))
		}
	}()
	s.mux.ServeHTTP(w, r)
}

// validateRows checks every row at the API boundary: feature width (when
// a bundle is installed) and finiteness, so malformed input fails with a
// field-level 400 instead of flowing into the kernels.
func (s *Server) validateRows(rows [][]float64) error {
	width := 0
	if b := s.reg.Current(); b != nil {
		width = b.Adapter.NumFeatures()
	}
	for i, row := range rows {
		if width > 0 && len(row) != width {
			return fmt.Errorf("rows[%d]: %d features, want %d", i, len(row), width)
		}
		for j, v := range row {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("rows[%d][%d]: non-finite value", i, j)
			}
		}
	}
	return nil
}

func (s *Server) handleAdapt(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	// Request span: adopt the caller's trace ID (X-Request-ID or
	// traceparent) or mint one, and echo it so the caller can correlate.
	// With spans disabled sp is nil and every span call below is a no-op —
	// the zero-allocation path guarded by TestAdaptDisabledTracingAllocs.
	sp := s.o.StartTrace("http.adapt", traceFromRequest(r))
	if t := sp.Trace(); t != "" {
		w.Header().Set(TraceHeader, t)
	}
	reqLatency := s.o.Histogram(obs.MetricServeReqLatency, obs.LatencyBuckets)
	outcome := func(kind string) {
		s.o.Counter(obs.MetricServeRequests, "outcome", kind).Inc()
		secs := time.Since(start).Seconds()
		reqLatency.Observe(secs)
		// SLO accounting: shed, timeout, and server errors burn the error
		// budget; degraded passthrough and client cancels do not.
		s.slo.Observe(EndpointAdapt, secs, kind == "error" || kind == "timeout" || kind == "shed")
		sp.SetAttr("outcome", kind)
		sp.End()
	}
	// Content negotiation: a binary (NDRB) body is announced by
	// Content-Type; the response codec follows Accept, defaulting to the
	// request's codec. Error responses are always JSON — status codes are
	// codec-independent, and a failing client is better served by a
	// readable body.
	binaryReq := strings.Contains(r.Header.Get("Content-Type"), ContentTypeRows)
	binaryResp := wantBinaryResponse(r.Header.Get("Accept"), binaryReq)
	reqCodec := codecJSON
	if binaryReq {
		reqCodec = codecBinary
	}
	s.o.Counter(obs.MetricServeCodecRequests, "codec", reqCodec).Inc()

	var rows [][]float64
	var seed int64
	var predict bool
	pb := adaptBufPool.Get().(*adaptBuf)
	recycle := true
	defer func() {
		if recycle {
			adaptBufPool.Put(pb)
		}
	}()
	if binaryReq {
		body, err := pb.readBody(r.Body)
		s.o.Histogram(obs.MetricServeRequestBytes, obs.SizeBuckets, "codec", codecBinary).
			Observe(float64(len(body)))
		if err != nil {
			outcome("error")
			httpError(w, http.StatusBadRequest, "read request: "+err.Error())
			return
		}
		rows, seed, predict, err = DecodeRowsRequest(body, &pb.rows)
		if err != nil {
			// Malformed wire input is a client error: it is rejected here,
			// before the coalescer, so it can never trip the serving
			// breakers (pinned by TestMalformedBinaryRequestDoesNotTripBreakers).
			outcome("error")
			httpError(w, http.StatusBadRequest, "decode request: "+err.Error())
			return
		}
	} else {
		var req AdaptRequest
		cr := countingReader{r: r.Body}
		err := json.NewDecoder(&cr).Decode(&req)
		s.o.Histogram(obs.MetricServeRequestBytes, obs.SizeBuckets, "codec", codecJSON).
			Observe(float64(cr.n))
		if err != nil {
			outcome("error")
			httpError(w, http.StatusBadRequest, "decode request: "+err.Error())
			return
		}
		rows, seed, predict = req.Rows, req.Seed, req.Predict
	}
	if len(rows) == 0 {
		outcome("error")
		httpError(w, http.StatusBadRequest, "rows must not be empty")
		return
	}
	if err := s.validateRows(rows); err != nil {
		outcome("error")
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	// Chaos injection point for the handler itself. An injected panic
	// exercises the recovery middleware; an injected error maps to 500.
	if err := s.co.options().Faults.Fire(FaultSiteHandler); err != nil {
		outcome("error")
		httpError(w, http.StatusInternalServerError, err.Error())
		return
	}
	// Propagate a per-request deadline into the coalescer so a stuck or
	// slow batch cannot hold the connection open unboundedly.
	ctx := r.Context()
	if t := s.co.options().RequestTimeout; t > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, t)
		defer cancel()
	}
	if binaryReq {
		// The decoded rows live in pb and are about to be handed to the
		// coalescer; from here pb may be recycled only when Submit's return
		// proves the executor is done with them (see adaptBuf).
		recycle = false
	}
	res, err := s.co.Submit(ctx, rows, seed, predict, sp)
	if binaryReq && !errors.Is(err, context.DeadlineExceeded) && !errors.Is(err, context.Canceled) {
		recycle = true
	}
	switch {
	case err == nil:
	case errors.Is(err, ErrOverloaded):
		outcome("shed")
		w.Header().Set("Retry-After", "1")
		httpError(w, http.StatusTooManyRequests, err.Error())
		return
	case errors.Is(err, context.DeadlineExceeded):
		outcome("timeout")
		httpError(w, http.StatusRequestTimeout, err.Error())
		return
	case errors.Is(err, context.Canceled):
		outcome("canceled")
		httpError(w, http.StatusRequestTimeout, err.Error())
		return
	case errors.Is(err, ErrRowWidth):
		outcome("error")
		httpError(w, http.StatusBadRequest, err.Error())
		return
	case errors.Is(err, ErrNoBundle), errors.Is(err, ErrClosed):
		outcome("error")
		httpError(w, http.StatusServiceUnavailable, err.Error())
		return
	case errors.Is(err, ErrExecPanic):
		outcome("error")
		httpError(w, http.StatusInternalServerError, err.Error())
		return
	default:
		outcome("error")
		httpError(w, http.StatusUnprocessableEntity, err.Error())
		return
	}
	if res.Degraded {
		outcome("degraded")
		w.Header().Set(DegradedHeader, "true")
	} else {
		outcome("ok")
	}
	if binaryResp {
		pb.resp = AppendRowsResponse(pb.resp[:0], &res)
		w.Header().Set("Content-Type", ContentTypeRows)
		w.Write(pb.resp)
		s.o.Histogram(obs.MetricServeResponseBytes, obs.SizeBuckets, "codec", codecBinary).
			Observe(float64(len(pb.resp)))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	cw := countingWriter{w: w}
	json.NewEncoder(&cw).Encode(AdaptResponse{
		BundleID:    res.BundleID,
		Rows:        res.Rows,
		Predictions: res.Predictions,
		Degraded:    res.Degraded,
	})
	s.o.Histogram(obs.MetricServeResponseBytes, obs.SizeBuckets, "codec", codecJSON).
		Observe(float64(cw.n))
}

// Health statuses reported by /healthz.
const (
	HealthOK       = "ok"       // golden path: bundle installed, breakers closed
	HealthDegraded = "degraded" // serving passthrough or recovering (a breaker is not closed)
	HealthDown     = "down"     // nothing to serve: no bundle and no evidence one exists
)

// HealthReport is the /healthz body: overall status plus per-component
// detail for operators.
type HealthReport struct {
	Status     string `json:"status"`
	Bundle     string `json:"bundle,omitempty"`
	Components struct {
		BundleLoad BreakerStatus `json:"bundle_load"`
		Executor   BreakerStatus `json:"executor"`
		Admission  struct {
			QueuedRows int64 `json:"queued_rows"`
			MaxQueue   int   `json:"max_queue"`
		} `json:"admission"`
	} `json:"components"`
}

// Health assembles the current health report. Status is HealthDown (503)
// only when there is no bundle and the load breaker has seen nothing
// wrong — i.e. nothing was ever loaded; any open or half-open breaker
// reads HealthDegraded (200: passthrough is still serving).
func (s *Server) Health() HealthReport {
	var h HealthReport
	bundle := s.reg.Current()
	loadSt := s.reg.Breaker().Status()
	co := s.co.Status()
	if bundle != nil {
		h.Bundle = bundle.ID
	}
	h.Components.BundleLoad = loadSt
	h.Components.Executor = co.ExecBreaker
	h.Components.Admission.QueuedRows = co.QueuedRows
	h.Components.Admission.MaxQueue = co.MaxQueue
	switch {
	case bundle == nil && loadSt.State == BreakerClosed:
		h.Status = HealthDown
	case loadSt.State != BreakerClosed || co.ExecBreaker.State != BreakerClosed:
		h.Status = HealthDegraded
	default:
		h.Status = HealthOK
	}
	return h
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	start := time.Now()
	h := s.Health()
	w.Header().Set("Content-Type", "application/json")
	if h.Status == HealthDown {
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	json.NewEncoder(w).Encode(h)
	s.slo.Observe(EndpointHealth, time.Since(start).Seconds(), h.Status == HealthDown)
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	if s.o != nil && s.o.Registry != nil {
		// Refresh the SLO gauges before exposition so burn rates on
		// /metrics reflect this instant's rolling windows.
		s.slo.Export(s.o.Registry, s.burnWindows...)
		s.o.Registry.WritePrometheus(w)
	}
}

// SLOStatus is the /v1/status view of the rolling SLO layer.
type SLOStatus struct {
	Objective obs.SLO                   `json:"objective"`
	Windows   []string                  `json:"windows"`
	Endpoints map[string][]obs.REDStats `json:"endpoints"`
}

// FlightStatus summarizes the flight recorder on /v1/status; the full ring
// is at /debug/flightrec.
type FlightStatus struct {
	Enabled  bool   `json:"enabled"`
	LastSeq  uint64 `json:"last_seq,omitempty"`
	Capacity int    `json:"capacity,omitempty"`
}

// StatusReport is the /v1/status body: health, SLO burn rates per endpoint
// and fault site, and flight-recorder occupancy in one operator view.
type StatusReport struct {
	Health HealthReport `json:"health"`
	SLO    SLOStatus    `json:"slo"`
	Flight FlightStatus `json:"flight_recorder"`
	Ctrl   any          `json:"ctrl,omitempty"`
}

// Status assembles the /v1/status report.
func (s *Server) Status() StatusReport {
	rep := StatusReport{Health: s.Health()}
	if s.ctrlStatus != nil {
		rep.Ctrl = s.ctrlStatus()
	}
	rep.SLO.Objective = s.slo.Objective()
	for _, wd := range s.burnWindows {
		rep.SLO.Windows = append(rep.SLO.Windows, wd.String())
	}
	rep.SLO.Endpoints = s.slo.Report(s.burnWindows...)
	if s.o != nil && s.o.Flight != nil {
		rep.Flight.Enabled = true
		rep.Flight.LastSeq = s.o.Flight.LastSeq()
		rep.Flight.Capacity = s.o.Flight.Capacity()
	}
	return rep
}

func (s *Server) handleStatus(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(s.Status())
}

func (s *Server) handleFlightRec(w http.ResponseWriter, _ *http.Request) {
	if s.o == nil || s.o.Flight == nil {
		httpError(w, http.StatusNotFound, "flight recorder disabled")
		return
	}
	w.Header().Set("Content-Type", "application/json")
	s.o.Flight.WriteSnapshot(w, "debug")
}

func httpError(w http.ResponseWriter, code int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": msg})
}
