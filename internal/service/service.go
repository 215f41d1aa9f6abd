// Package service is the evaluation service's HTTP/JSON front end: a
// dependency-free net/http layer over the memoizing evaluation engine, so
// sweeps run against a long-lived warm-cached server process instead of
// re-linking the library per experiment. It contributes three things the
// in-process engine does not have:
//
//   - a wire surface (POST /v1/eval, POST /v1/batch, GET /v1/stats,
//     GET /healthz) whose request/response types round-trip core.Config
//     and core.Result losslessly (encoding/json preserves float64 exactly),
//     so remote results are equal to in-process ones;
//   - admission control, bounded twice: at most MaxInflight eval/batch
//     requests are admitted at once (everything beyond is rejected
//     immediately with 429 and a Retry-After), and across all admitted
//     requests at most WorkerBound point evaluations execute concurrently
//     (a server-wide solve semaphore — admitted batches queue for solver
//     capacity instead of multiplying it), so overload degrades into fast
//     rejections and orderly queueing instead of a solve pile-up. Request
//     bodies are size-capped (413) before any buffering.
//   - cancellation: each request's context is plumbed down into the
//     engine's EvalContext, so a client that disconnects stops burning
//     solver time at the next point boundary.
//
// The matching Client lives in client.go; repro.NewClient re-exports it.
package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/faultinject"
	"repro/internal/obs"
	"repro/internal/persist"
	"repro/internal/wire"
)

// Backend is the evaluation surface the service fronts. *engine.Engine
// implements it; tests substitute blocking fakes to exercise admission
// control and cancellation without real solves.
type Backend interface {
	// EvalContext evaluates one configuration under a cancellable context.
	EvalContext(ctx context.Context, cfg core.Config) (*core.Result, error)
	// Cached probes for a memoized Result without evaluating, so the
	// service can serve hits without charging them against solver
	// capacity.
	Cached(cfg core.Config) (*core.Result, bool)
	// JoinInflight waits on an in-flight evaluation of cfg when one is
	// underway (joined=true), so duplicate points across concurrent
	// requests wait without consuming solve capacity; joined=false means
	// the caller should evaluate itself.
	JoinInflight(ctx context.Context, cfg core.Config) (res *core.Result, joined bool, err error)
	// Stats snapshots the backend's cache accounting for GET /v1/stats.
	Stats() engine.Stats
	// WorkerBound caps per-batch evaluation parallelism (0 = GOMAXPROCS).
	WorkerBound() int
}

// Options configures a Server.
type Options struct {
	// Backend evaluates requests; required (New panics on nil).
	Backend Backend
	// MaxInflight bounds concurrently admitted eval/batch requests;
	// excess requests get 429 immediately. Default 4x GOMAXPROCS —
	// enough admitted requests to keep the solve semaphore (bounded by
	// the backend's WorkerBound) saturated by small batches without
	// letting a traffic spike queue unbounded work.
	MaxInflight int
	// MaxBatchPoints bounds the configurations in one batch request
	// (default 4096); larger batches get 400 and should be split.
	MaxBatchPoints int
	// MaxBodyBytes bounds a request body (default 64 MiB); larger
	// payloads get 413 without being buffered, so oversized posts cannot
	// OOM the daemon before MaxBatchPoints is even checked.
	MaxBodyBytes int64
	// MaxFrontierEvals bounds the fresh evaluations one POST /v1/frontier
	// request may spend (default 4096); request budgets are clamped to it.
	MaxFrontierEvals int
	// SolveTimeout, when positive, is the per-point watchdog: an
	// evaluation that has not answered within it is abandoned with a 503
	// (the engine keeps solving in the background and caches the result,
	// so a retry after the Retry-After lands warm). 0 disables the
	// watchdog; client contexts still bound requests.
	SolveTimeout time.Duration
	// CheckpointStatus, when set, feeds the checkpoint loop's health into
	// GET /v1/stats and /healthz (cmd/server wires the Checkpointer's
	// Status method here).
	CheckpointStatus func() persist.CheckpointStatus
	// Cluster, when set, makes this server a member of an evaluation
	// cluster: point evaluations route across the cluster's consistent-hash
	// ring (with failover and replicated cache-fill), the peer RPC surface
	// (/v1/peer/solve, /v1/peer/fill, /v1/peer/entries, /v1/peer/ping) is
	// registered, /v1/stats grows a cluster block, and /healthz reports
	// "degraded" while any peer is believed down. Nil is a plain
	// single-node server.
	Cluster *cluster.Node
	// Logger receives structured request and error logs (with trace_id
	// fields). Nil discards them — the in-process test servers stay
	// silent; cmd/server passes its slog root.
	Logger *slog.Logger
}

// Stats counts the service-level request traffic (the engine keeps its own
// cache accounting; GET /v1/stats reports both).
type Stats struct {
	// Requests counts admitted eval/batch requests; Rejected counts 429s.
	Requests uint64 `json:"requests"`
	// Points counts evaluated configurations across all admitted requests.
	Points uint64 `json:"points"`
	// Rejected counts requests refused by admission control.
	Rejected uint64 `json:"rejected"`
	// Inflight is the number of requests currently holding an admission
	// slot; MaxInflight is the cap.
	Inflight    int `json:"inflight"`
	MaxInflight int `json:"max_inflight"`
	// PanicsRecovered counts handler panics converted to 500s by the
	// recovery middleware (engine-internal panics are recovered deeper and
	// counted in the engine stats).
	PanicsRecovered uint64 `json:"panics_recovered"`
	// WatchdogTimeouts counts point evaluations abandoned by the
	// SolveTimeout watchdog.
	WatchdogTimeouts uint64 `json:"watchdog_timeouts"`
	// Draining reports that shutdown has begun: /healthz answers 503 so
	// load balancers stop routing here while in-flight requests finish.
	Draining bool `json:"draining"`
	// UptimeSeconds is the time since the server was constructed.
	UptimeSeconds float64 `json:"uptime_seconds"`
}

// Server is the HTTP front end; it implements http.Handler.
type Server struct {
	backend      Backend
	sem          chan struct{} // admission: whole requests
	evalSem      chan struct{} // solver work: individual point evaluations
	maxBatch     int
	maxBody      int64
	maxFrontier  int
	solveTimeout time.Duration
	ckptStatus   func() persist.CheckpointStatus
	clusterNode  *cluster.Node
	mux          *http.ServeMux
	started      time.Time
	logger       *slog.Logger

	// Request counters are registry instruments (see initMetrics): the
	// handlers and GET /metrics share one set of atomics. routeHist is
	// the per-route request-duration histogram table.
	reg                               *obs.Registry
	requests, points, rejected        *obs.Counter
	panicsRecovered, watchdogTimeouts *obs.Counter
	routeHist                         map[string]*obs.Histogram
	draining                          atomic.Bool

	// Load signals behind the latency-derived Retry-After: the EWMA of
	// recent successful solve latencies and the number of evaluations
	// currently holding or queued for the solve semaphore.
	solveLatency  latencyEWMA
	pendingSolves atomic.Int64

	// Degraded-state tracking for /healthz: each probe compares the
	// resilience counters to the previous probe's and stamps an incident
	// when they moved; "degraded" means an incident within the window.
	healthMu     sync.Mutex
	lastCounters [4]uint64
	lastIncident time.Time
}

// New constructs a Server over opts.Backend.
func New(opts Options) *Server {
	if opts.Backend == nil {
		panic("service: Options.Backend is required")
	}
	if opts.MaxInflight <= 0 {
		opts.MaxInflight = 4 * runtime.GOMAXPROCS(0)
	}
	if opts.MaxBatchPoints <= 0 {
		opts.MaxBatchPoints = 4096
	}
	if opts.MaxBodyBytes <= 0 {
		opts.MaxBodyBytes = 64 << 20
	}
	if opts.MaxFrontierEvals <= 0 {
		opts.MaxFrontierEvals = 4096
	}
	workers := opts.Backend.WorkerBound()
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	s := &Server{
		backend:      opts.Backend,
		sem:          make(chan struct{}, opts.MaxInflight),
		evalSem:      make(chan struct{}, workers),
		maxBatch:     opts.MaxBatchPoints,
		maxBody:      opts.MaxBodyBytes,
		maxFrontier:  opts.MaxFrontierEvals,
		solveTimeout: opts.SolveTimeout,
		ckptStatus:   opts.CheckpointStatus,
		clusterNode:  opts.Cluster,
		mux:          http.NewServeMux(),
		started:      time.Now(),
		logger:       opts.Logger,
	}
	if s.logger == nil {
		s.logger = slog.New(slog.DiscardHandler)
	}
	s.initMetrics()
	// Baseline the health-probe incident detector at construction: some
	// backend counters (the ctmc fallback tallies) are process-global, so
	// history from before this server existed must not read as a fresh
	// incident on the first /healthz probe.
	est := opts.Backend.Stats()
	s.lastCounters = [4]uint64{est.SolverFallbacks, est.PanicsRecovered, 0, 0}
	s.mux.HandleFunc("POST /v1/eval", s.handleEval)
	s.mux.HandleFunc("POST /v1/batch", s.handleBatch)
	s.mux.HandleFunc("POST /v1/frontier", s.handleFrontier)
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	if s.clusterNode != nil {
		s.registerPeerHandlers()
	}
	return s
}

// ServeHTTP implements http.Handler. Every request passes three layers
// before routing: a panic-recovery middleware (a handler or backend panic
// becomes a counted 500, not a dead process — except http.ErrAbortHandler,
// net/http's sanctioned way to abort a connection, which is re-raised),
// trace-id handling (the X-Repro-Trace-Id header is sanitized or minted,
// echoed on the response, and planted in the request context so it
// follows the evaluation through peer hops, NDJSON done lines, and logs),
// and the transport fault-injection seam (injected 503s, connection
// resets, latency — never on /healthz, so chaos tests can still probe
// liveness out-of-band). Request durations land in the per-route
// histogram on the way out.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	defer func() {
		rec := recover()
		if rec == nil {
			return
		}
		if rec == http.ErrAbortHandler {
			panic(rec)
		}
		s.panicsRecovered.Add(1)
		// Best effort: if the handler already wrote headers the client
		// sees a truncated body and fails its decode, which is also safe.
		writeJSON(w, http.StatusInternalServerError,
			ErrorResponse{Error: fmt.Sprintf("service: internal error (recovered panic): %v", rec)})
	}()
	tid := obs.SanitizeTraceID(r.Header.Get(obs.TraceHeader))
	if tid == "" {
		tid = obs.NewTraceID()
	}
	w.Header().Set(obs.TraceHeader, tid)
	r = r.WithContext(obs.WithTraceID(r.Context(), tid))
	if r.URL.Path != "/healthz" {
		faultinject.SleepFor(faultinject.HTTPLatency, faultinject.HTTPLatencyMS, 50)
		if faultinject.Fire(faultinject.HTTPReset) {
			panic(http.ErrAbortHandler)
		}
		// No Retry-After on the injected 503: the fault models an
		// arbitrary upstream 5xx, not admission control, so the client
		// must fall back to its own backoff schedule. The genuine 429
		// and watchdog paths keep their Retry-After hints.
		if faultinject.Fire(faultinject.HTTPErr5xx) {
			writeJSON(w, http.StatusServiceUnavailable,
				ErrorResponse{Error: "service: injected transient failure; retry"})
			return
		}
	}
	start := time.Now()
	s.mux.ServeHTTP(w, r)
	elapsed := time.Since(start)
	if h := s.routeHist[metricRoute(r.URL.Path)]; h != nil {
		h.Observe(elapsed.Seconds())
	}
	s.logger.LogAttrs(r.Context(), slog.LevelDebug, "request",
		slog.String("component", "service"),
		slog.String("method", r.Method),
		slog.String("path", r.URL.Path),
		slog.String("trace_id", tid),
		slog.Duration("elapsed", elapsed))
}

// SetDraining flips the server into (or out of) draining: /healthz answers
// 503 so load balancers and orchestrators stop sending new traffic, while
// already-admitted requests run to completion. cmd/server flips it on
// SIGTERM before http.Server.Shutdown.
func (s *Server) SetDraining(on bool) { s.draining.Store(on) }

// Stats snapshots the service-level counters.
func (s *Server) Stats() Stats {
	return Stats{
		Requests:         s.requests.Value(),
		Points:           s.points.Value(),
		Rejected:         s.rejected.Value(),
		Inflight:         len(s.sem),
		MaxInflight:      cap(s.sem),
		PanicsRecovered:  s.panicsRecovered.Value(),
		WatchdogTimeouts: s.watchdogTimeouts.Value(),
		Draining:         s.draining.Load(),
		UptimeSeconds:    time.Since(s.started).Seconds(),
	}
}

// --- Wire types ---

// The bodies that carry configurations and results live in internal/wire,
// which decodes them; these names keep the service's API.
type (
	EvalRequest   = wire.EvalRequest
	EvalResponse  = wire.EvalResponse
	BatchRequest  = wire.BatchRequest
	BatchResponse = wire.BatchResponse
)

// StatsResponse is the GET /v1/stats body.
type StatsResponse struct {
	Engine  engine.Stats `json:"engine"`
	Service Stats        `json:"service"`
	// Checkpoint reports the snapshot loop's health when the daemon runs
	// one (absent under go test's in-process servers without persistence).
	Checkpoint *CheckpointStats `json:"checkpoint,omitempty"`
	// Cluster reports routing counters and peer liveness on cluster-wired
	// servers (absent on single-node deployments).
	Cluster *cluster.Status `json:"cluster,omitempty"`
	// Faults reports per-site fired counts while fault injection is armed
	// (absent otherwise), so a chaos run can verify which sites — the
	// peer.* cluster sites included — actually fired.
	Faults map[string]uint64 `json:"faults,omitempty"`
	// Build identifies the serving binary (VCS revision, dirty flag, Go
	// toolchain), so a stats snapshot always names the build it came from.
	Build obs.Build `json:"build"`
}

// CheckpointStats is the wire form of persist.CheckpointStatus.
type CheckpointStats struct {
	// LastSaveAgeSec is the seconds since the on-disk snapshot was last
	// known current; -1 until the first successful save.
	LastSaveAgeSec float64 `json:"last_save_age_sec"`
	// LastSaveError is the most recent save failure ("" when healthy).
	LastSaveError       string `json:"last_save_error,omitempty"`
	ConsecutiveFailures int    `json:"consecutive_failures"`
	SavesOK             uint64 `json:"saves_ok"`
	SavesFailed         uint64 `json:"saves_failed"`
}

// HealthResponse is the GET /healthz body. Status is "ok", "degraded"
// (serving, but resilience machinery fired recently — solver fallbacks,
// recovered panics, watchdog timeouts, or a failing checkpoint loop), or
// "draining" (shutting down; the response carries HTTP 503 so load
// balancers stop routing here).
type HealthResponse struct {
	Status           string  `json:"status"`
	SolverFallbacks  uint64  `json:"solver_fallbacks"`
	PanicsRecovered  uint64  `json:"panics_recovered"`
	WatchdogTimeouts uint64  `json:"watchdog_timeouts"`
	CheckpointAgeSec float64 `json:"checkpoint_age_sec,omitempty"`
	CheckpointError  string  `json:"checkpoint_error,omitempty"`
	// ClusterPeersDown counts peers this node does not currently believe
	// alive (cluster deployments only). Any nonzero value reports
	// "degraded"; it returns to zero — and the status to "ok" — the moment
	// the last missing peer heartbeats again.
	ClusterPeersDown int `json:"cluster_peers_down,omitempty"`
	// Build identifies the serving binary.
	Build obs.Build `json:"build"`
}

// ErrorResponse is the body of every non-2xx response.
type ErrorResponse struct {
	Error string `json:"error"`
}

// --- Handlers ---

// admit takes an admission slot, or answers 429 and returns false. The
// slot covers a whole request from before its body is decoded, so
// MaxInflight bounds every cost a request can impose — body buffering,
// JSON parsing, validation, evaluation — and a rejected request costs the
// server nothing beyond its headers. The separate evalSem (sized to the
// backend's WorkerBound) bounds how many point evaluations across ALL
// admitted requests actually run concurrently, so admitted batches queue
// for solver capacity instead of multiplying it.
func (s *Server) admit(w http.ResponseWriter) bool {
	select {
	case s.sem <- struct{}{}:
		s.requests.Add(1)
		return true
	default:
		s.rejected.Add(1)
		w.Header().Set("Retry-After", s.retryAfterSecs())
		writeJSON(w, http.StatusTooManyRequests,
			ErrorResponse{Error: fmt.Sprintf("service: %d requests already in flight; retry later", cap(s.sem))})
		return false
	}
}

func (s *Server) release() { <-s.sem }

// evalPoint runs one point evaluation: cache hits are served immediately
// (so a warm batch answers in microseconds even while every solve slot is
// held by someone's long cold sweep); misses either solve locally or, on a
// cluster-wired server, route across the ring with failover. Routing runs
// entirely outside the local solve semaphore — only the local-solve leg
// acquires it — so two nodes cross-routing each other's keys cannot
// deadlock even at WorkerBound 1.
func (s *Server) evalPoint(ctx context.Context, cfg core.Config) (*core.Result, error) {
	if res, ok := s.backend.Cached(cfg); ok {
		return res, nil
	}
	if s.clusterNode != nil {
		return s.clusterNode.Route(ctx, cfg, func(c context.Context) (*core.Result, error) {
			return s.solveWatched(c, cfg)
		})
	}
	return s.solveWatched(ctx, cfg)
}

// evalPointLocal is evalPoint without cluster routing: the strictly-local
// path behind /v1/peer/solve, where the routing decision was already made
// by the calling peer (re-routing here could forward forever).
func (s *Server) evalPointLocal(ctx context.Context, cfg core.Config) (*core.Result, error) {
	if res, ok := s.backend.Cached(cfg); ok {
		return res, nil
	}
	return s.solveWatched(ctx, cfg)
}

// solveWatched runs one local evaluation under the watchdog and the
// server-wide solve semaphore: across every admitted request at most
// WorkerBound evaluations execute concurrently, the rest queue (and leave
// the queue immediately when their request is abandoned).
func (s *Server) solveWatched(ctx context.Context, cfg core.Config) (*core.Result, error) {
	// The watchdog bounds how long this request waits for the point:
	// when it fires, the response is a 503 and the engine's evaluation
	// keeps running in the background — the result lands in the cache, so
	// the client's retry is served warm instead of restarting the solve.
	if s.solveTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeoutCause(ctx, s.solveTimeout, errWatchdog)
		defer cancel()
	}
	res, err := s.evalPointInner(ctx, cfg)
	if err != nil && errors.Is(context.Cause(ctx), errWatchdog) {
		s.watchdogTimeouts.Add(1)
		err = fmt.Errorf("service: solve abandoned by the %s watchdog (still computing; retry): %w",
			s.solveTimeout, err)
	}
	return res, err
}

// errWatchdog is the cancellation cause distinguishing the server-side
// watchdog from a client that hung up.
var errWatchdog = errors.New("service: solve watchdog expired")

func (s *Server) evalPointInner(ctx context.Context, cfg core.Config) (*core.Result, error) {
	// A point someone else is already solving is waited on slot-free, so
	// duplicate cold points across concurrent batches pin one solve slot
	// total, not one per waiter. (A duplicate that slips past this check
	// joins inside EvalContext while holding a slot — rare and bounded.)
	if res, inflight, err := s.backend.JoinInflight(ctx, cfg); inflight {
		return res, err
	}
	s.pendingSolves.Add(1)
	defer s.pendingSolves.Add(-1)
	select {
	case s.evalSem <- struct{}{}:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	defer func() { <-s.evalSem }()
	start := time.Now()
	res, err := s.backend.EvalContext(ctx, cfg)
	if err == nil {
		s.solveLatency.observe(time.Since(start))
	}
	return res, err
}

// decodeBody decodes a size-capped JSON request body into v, answering
// 413/400 itself and returning false when the request is unusable.
func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	body := http.MaxBytesReader(w, r.Body, s.maxBody)
	if err := wire.Decode(body, v); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeJSON(w, http.StatusRequestEntityTooLarge,
				ErrorResponse{Error: fmt.Sprintf("service: request body exceeds the %d-byte limit; split the batch", tooBig.Limit)})
			return false
		}
		writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: "service: undecodable request body: " + err.Error()})
		return false
	}
	return true
}

func (s *Server) handleEval(w http.ResponseWriter, r *http.Request) {
	// Admission precedes even the body decode: under overload the server
	// spends nothing on a rejected request beyond reading its headers.
	if !s.admit(w) {
		return
	}
	defer s.release()
	var req EvalRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	if err := req.Config.Validate(); err != nil {
		writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: err.Error()})
		return
	}
	s.points.Add(1)
	res, err := s.evalPoint(r.Context(), req.Config)
	if err != nil {
		s.evalError(w, r, err)
		return
	}
	writeJSON(w, http.StatusOK, EvalResponse{Result: res})
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	if !s.admit(w) {
		return
	}
	defer s.release()
	var req BatchRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	if len(req.Configs) == 0 {
		writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: "service: batch has no configurations"})
		return
	}
	if len(req.Configs) > s.maxBatch {
		writeJSON(w, http.StatusBadRequest,
			ErrorResponse{Error: fmt.Sprintf("service: batch of %d exceeds the %d-point limit; split it", len(req.Configs), s.maxBatch)})
		return
	}
	for i, cfg := range req.Configs {
		if err := cfg.Validate(); err != nil {
			writeJSON(w, http.StatusBadRequest,
				ErrorResponse{Error: fmt.Sprintf("service: batch point %d: %v", i, err)})
			return
		}
	}
	s.points.Add(uint64(len(req.Configs)))

	// Clients that accept NDJSON get each point's line flushed as it
	// resolves instead of one buffered body; same fan-out, same bytes per
	// point, different framing.
	if acceptsNDJSON(r) {
		s.streamBatch(w, r, req.Configs)
		return
	}

	// Per-point fan-out with per-point errors kept addressable (the
	// engine's EvalBatchContext joins them into one error, which a remote
	// client cannot map back onto points). Concurrency is bounded twice:
	// this request spawns at most cap(evalSem) workers, and evalPoint
	// serializes against every other admitted request's points.
	results := make([]*core.Result, len(req.Configs))
	errs := make([]error, len(req.Configs))
	ctx := r.Context()
	core.ForEachIndexed(len(req.Configs), cap(s.evalSem), func(i int) {
		results[i], errs[i] = s.evalPoint(ctx, req.Configs[i])
	})

	if err := ctx.Err(); err != nil {
		// Client is gone; nothing useful to write.
		s.evalError(w, r, err)
		return
	}
	resp := BatchResponse{Results: results}
	for i, err := range errs {
		if err != nil {
			if resp.Errors == nil {
				resp.Errors = make([]string, len(req.Configs))
			}
			resp.Errors[i] = err.Error()
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	resp := StatsResponse{
		Engine:  s.backend.Stats(),
		Service: s.Stats(),
		Faults:  faultinject.FiredCounts(),
		Build:   obs.BuildInfo(),
	}
	if s.clusterNode != nil {
		st := s.clusterNode.Status()
		resp.Cluster = &st
	}
	if s.ckptStatus != nil {
		st := s.ckptStatus()
		ck := &CheckpointStats{
			LastSaveAgeSec:      -1,
			LastSaveError:       st.LastError,
			ConsecutiveFailures: st.ConsecutiveFailures,
			SavesOK:             st.SavesOK,
			SavesFailed:         st.SavesFailed,
		}
		if !st.LastSuccess.IsZero() {
			ck.LastSaveAgeSec = time.Since(st.LastSuccess).Seconds()
		}
		resp.Checkpoint = ck
	}
	writeJSON(w, http.StatusOK, resp)
}

// degradedWindow is how long after the last resilience incident (solver
// fallback, recovered panic, watchdog timeout) /healthz keeps reporting
// "degraded".
const degradedWindow = 60 * time.Second

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	est := s.backend.Stats()
	resp := HealthResponse{
		Status:           "ok",
		SolverFallbacks:  est.SolverFallbacks,
		PanicsRecovered:  est.PanicsRecovered + s.panicsRecovered.Value(),
		WatchdogTimeouts: s.watchdogTimeouts.Value(),
		Build:            obs.BuildInfo(),
	}

	// Lazy incident detection: counters that moved since the previous
	// probe (or since construction, for the first probe) stamp an
	// incident; degraded = an incident inside the window.
	cur := [4]uint64{est.SolverFallbacks, est.PanicsRecovered, s.panicsRecovered.Value(), s.watchdogTimeouts.Value()}
	now := time.Now()
	s.healthMu.Lock()
	if cur != s.lastCounters {
		s.lastCounters = cur
		s.lastIncident = now
	}
	degraded := !s.lastIncident.IsZero() && now.Sub(s.lastIncident) < degradedWindow
	s.healthMu.Unlock()

	if s.ckptStatus != nil {
		st := s.ckptStatus()
		resp.CheckpointError = st.LastError
		if !st.LastSuccess.IsZero() {
			resp.CheckpointAgeSec = time.Since(st.LastSuccess).Seconds()
		}
		if st.ConsecutiveFailures > 0 {
			degraded = true
		}
	}
	if s.clusterNode != nil {
		for _, p := range s.clusterNode.Status().Peers {
			if p.State != cluster.PeerAlive {
				resp.ClusterPeersDown++
			}
		}
		if resp.ClusterPeersDown > 0 {
			degraded = true
		}
	}
	if degraded {
		resp.Status = "degraded"
	}
	if s.draining.Load() {
		resp.Status = "draining"
		writeJSON(w, http.StatusServiceUnavailable, resp)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// evalError maps an evaluation failure onto a status: cancellation (the
// client hung up or timed out) gets 499-style treatment via 503, anything
// else is a 422 — the request was well-formed JSON but the model could
// not evaluate it (exploration bound exceeded, no absorbing states, ...),
// which is a property of the submitted configuration. Server-side
// misconfiguration that would fail every request identically (a typo'd
// REPRO_SOLVER) is ruled out at daemon boot by ctmc.ValidateDefaultSolver,
// so it cannot masquerade as client error here.
func (s *Server) evalError(w http.ResponseWriter, r *http.Request, err error) {
	status := http.StatusUnprocessableEntity
	switch {
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		status = http.StatusServiceUnavailable
		w.Header().Set("Retry-After", s.retryAfterSecs())
	case errors.Is(err, engine.ErrEvalPanic) || errors.Is(err, engine.ErrNonFinite):
		// Server-side internal failure, not a property of the submitted
		// configuration: 500 so retrying clients try again instead of
		// treating it as permanent.
		status = http.StatusInternalServerError
	}
	s.logger.LogAttrs(r.Context(), slog.LevelWarn, "evaluation failed",
		slog.String("component", "service"),
		slog.String("path", r.URL.Path),
		slog.String("trace_id", obs.TraceID(r.Context())),
		slog.Int("status", status),
		slog.String("error", err.Error()))
	writeJSON(w, status, ErrorResponse{Error: err.Error()})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	// Encode errors past the header are unreportable; the client sees a
	// truncated body and fails its decode.
	_ = json.NewEncoder(w).Encode(v)
}
