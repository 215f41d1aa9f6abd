package main

// Tracing from outside the program. A traced run wraps each layer's public
// surface — the HTTP handler, service.Backend (with FrontierBackend and the
// solve Gate), each cluster node's peer transport, core's default evaluator
// and the evaluation's prepare step — and records one span per call. Spans
// are held in memory and written to trace_<workload>.json at exit.
// Untraced runs install none of these wrappers.

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/ctmc"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/service"
)

type phase int32

const (
	phaseSetup phase = iota
	phaseTimed
	phaseCheck
)

func (p phase) String() string {
	switch p {
	case phaseSetup:
		return "setup"
	case phaseTimed:
		return "timed"
	default:
		return "check"
	}
}

// span is one timed call into a layer. Parent links a span to the span
// that caused it, across goroutines and HTTP hops; ParentInferred marks
// the engine.cached probes, whose Backend method takes no context, linked
// to the handler on the same node whose interval contains them.
type span struct {
	ID, Parent     uint64
	ParentInferred bool
	Phase          phase
	Trace          string
	Name           string
	Node           string
	Start, End     int64 // ns since the tracer started
	// N is a per-span count: states explored, evaluations charged, or 1 for
	// a cache probe that hit.
	N int64
}

func (s *span) dur() time.Duration { return time.Duration(s.End - s.Start) }

type tracer struct {
	t0    time.Time
	phase atomic.Int32
	ids   atomic.Uint64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) setPhase(p phase) {
	if t != nil {
		t.phase.Store(int32(p))
	}
}

type spanKey struct{}

// parentHeader carries the caller's span id across an HTTP hop, beside the
// program's own X-Repro-Trace-Id.
const parentHeader = "X-Bench-Parent-Span"

// live is a span in progress.
type live struct {
	t     *tracer
	s     span
	start time.Time
}

// begin starts a span under the span carried by ctx.
func (t *tracer) begin(ctx context.Context, name, node string) (context.Context, *live) {
	parent, _ := ctx.Value(spanKey{}).(uint64)
	return t.beginUnder(ctx, parent, name, node)
}

func (t *tracer) beginUnder(ctx context.Context, parent uint64, name, node string) (context.Context, *live) {
	id := t.ids.Add(1)
	p := phase(t.phase.Load())
	l := &live{t: t, start: time.Now(), s: span{
		ID: id, Parent: parent, Trace: obs.TraceID(ctx), Name: name, Node: node, Phase: p,
	}}
	return context.WithValue(ctx, spanKey{}, id), l
}

func (l *live) end() { l.endN(0) }

func (l *live) endN(n int64) {
	now := time.Now()
	l.s.Start = l.start.Sub(l.t.t0).Nanoseconds()
	l.s.End = now.Sub(l.t.t0).Nanoseconds()
	l.s.N = n
	l.t.mu.Lock()
	l.t.spans = append(l.t.spans, l.s)
	l.t.mu.Unlock()
}

// --- HTTP ---

// clientTransport forwards the current span id to the server.
type clientTransport struct{ base http.RoundTripper }

func (c clientTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if id, ok := req.Context().Value(spanKey{}).(uint64); ok {
		req = req.Clone(req.Context())
		req.Header.Set(parentHeader, strconv.FormatUint(id, 10))
	}
	return c.base.RoundTrip(req)
}

// serverSpanName names a handler span by route.
func serverSpanName(path string) string {
	switch path {
	case "/v1/eval", "/v1/batch", "/v1/frontier":
		return "service.request"
	case "/metrics":
		return "obs.metrics"
	case "/v1/peer/solve":
		return "cluster.peer_server"
	case "/v1/peer/fill":
		return "cluster.fill_server"
	case "/v1/peer/ping":
		return "cluster.ping_server"
	case "/v1/peer/entries":
		return "cluster.entries_server"
	}
	return "service.other"
}

// middleware wraps a node's handler: one span per request, parented to the
// calling span named by parentHeader.
func (t *tracer) middleware(node string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		parent, _ := strconv.ParseUint(r.Header.Get(parentHeader), 10, 64)
		ctx := r.Context()
		if tid := obs.SanitizeTraceID(r.Header.Get(obs.TraceHeader)); tid != "" {
			ctx = obs.WithTraceID(ctx, tid)
		}
		ctx, sp := t.beginUnder(ctx, parent, serverSpanName(r.URL.Path), node)
		h.ServeHTTP(w, r.WithContext(ctx))
		sp.end()
	})
}

// peerTransport is the http.RoundTripper on a cluster node's
// Options.HTTPClient: one span per peer RPC, ended when the caller closes
// the response body, so decoding the reply is inside it.
type peerTransport struct {
	t    *tracer
	node string
	base http.RoundTripper
}

func peerSpanName(path string) string {
	switch path {
	case "/v1/peer/solve":
		return "cluster.peer_solve"
	case "/v1/peer/fill":
		return "cluster.fill"
	case "/v1/peer/ping":
		return "cluster.ping"
	case "/v1/peer/entries":
		return "cluster.entries"
	}
	return "cluster.other"
}

func (p peerTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	ctx, sp := p.t.begin(req.Context(), peerSpanName(req.URL.Path), p.node)
	req = req.Clone(ctx)
	req.Header.Set(parentHeader, strconv.FormatUint(sp.s.ID, 10))
	resp, err := p.base.RoundTrip(req)
	if err != nil {
		sp.end()
		return nil, err
	}
	resp.Body = &spanBody{ReadCloser: resp.Body, sp: sp}
	return resp, nil
}

type spanBody struct {
	io.ReadCloser
	sp   *live
	once sync.Once
}

func (b *spanBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(b.sp.end)
	return err
}

// --- engine and model layers ---

// tracedBackend is the service.Backend (and FrontierBackend) a traced run
// hands the server: every call is forwarded to the real engine.
type tracedBackend struct {
	t    *tracer
	node string
	eng  *engine.Engine
}

func (b *tracedBackend) EvalContext(ctx context.Context, cfg core.Config) (*core.Result, error) {
	return b.t.eval(ctx, b.eng, cfg, b.node)
}

func (b *tracedBackend) Cached(cfg core.Config) (*core.Result, bool) {
	_, sp := b.t.begin(context.Background(), "engine.cached", b.node)
	res, ok := b.eng.Cached(cfg)
	sp.endN(boolN(ok))
	return res, ok
}

func (b *tracedBackend) JoinInflight(ctx context.Context, cfg core.Config) (*core.Result, bool, error) {
	_, sp := b.t.begin(ctx, "engine.join", b.node)
	res, joined, err := b.eng.JoinInflight(ctx, cfg)
	sp.endN(boolN(joined))
	return res, joined, err
}

func (b *tracedBackend) Stats() engine.Stats    { return b.eng.Stats() }
func (b *tracedBackend) WorkerBound() int       { return b.eng.WorkerBound() }
func (b *tracedBackend) Metrics() *obs.Registry { return b.eng.Metrics() }

// AdaptiveFrontier keeps the server's solve Gate and times, around it, the
// wait for a slot and the evaluation that holds it.
func (b *tracedBackend) AdaptiveFrontier(ctx context.Context, cfg core.Config, opts engine.FrontierOptions, emit func(engine.FrontierRevision) error) ([]core.DesignPoint, int, error) {
	ctx, sp := b.t.begin(ctx, "engine.frontier", b.node)
	if gate := opts.Gate; gate != nil {
		opts.Gate = func(gctx context.Context) (func(), error) {
			_, wait := b.t.begin(gctx, "engine.gate_wait", b.node)
			release, err := gate(gctx)
			wait.end()
			if err != nil {
				return nil, err
			}
			_, ev := b.t.begin(gctx, "engine.eval", b.node)
			return func() { ev.end(); release() }, nil
		}
	}
	frontier, evals, err := b.eng.AdaptiveFrontier(ctx, cfg, opts, emit)
	sp.endN(int64(evals))
	return frontier, evals, err
}

func boolN(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// build is core.Prepare split at its public seams: BuildModel, Explore and
// FromGraph, each in its own span.
func (t *tracer) build(ctx context.Context, cfg core.Config, node string) (*core.Prepared, error) {
	_, sp := t.begin(ctx, "core.build_model", node)
	m, err := core.BuildModel(cfg)
	sp.end()
	if err != nil {
		return nil, err
	}
	_, sp = t.begin(ctx, "spn.explore", node)
	g, err := m.Explore()
	if err != nil {
		sp.end()
		return nil, err
	}
	sp.endN(int64(g.NumStates()))
	_, sp = t.begin(ctx, "ctmc.assemble", node)
	chain := ctmc.FromGraph(g)
	sp.end()
	if cfg.Solver != "" {
		backend, err := ctmc.SolverBackendByName(cfg.Solver)
		if err != nil {
			return nil, err
		}
		chain.SetSolver(backend)
	}
	return &core.Prepared{Model: m, Graph: g, Chain: chain}, nil
}

// eval is a fresh evaluation on eng through the traced prepare: what a
// traced run does wherever an untraced one calls Engine.EvalContext.
func (t *tracer) eval(ctx context.Context, eng *engine.Engine, cfg core.Config, node string) (*core.Result, error) {
	ctx, sp := t.begin(ctx, "engine.eval", node)
	defer sp.end()
	return eng.EvalWithContext(ctx, cfg, t.prepare(ctx, cfg, node))
}

// prepare is the prepare function a traced run passes to
// Engine.EvalWithContext: build, solve and analyze, each timed. The engine
// then reads the memoized Result from the returned Prepared.
func (t *tracer) prepare(ctx context.Context, cfg core.Config, node string) func() (*core.Prepared, error) {
	return func() (*core.Prepared, error) {
		p, err := t.build(ctx, cfg, node)
		if err != nil {
			return nil, err
		}
		_, sp := t.begin(ctx, "ctmc.solve", node)
		_, err = p.Solution()
		sp.end()
		if err != nil {
			return nil, err
		}
		_, sp = t.begin(ctx, "core.analyze", node)
		_, err = p.Analyze()
		sp.end()
		return p, err
	}
}

// tracedEvaluator is the core.PreparedEvaluator sweep_cold installs as the
// default evaluator on traced runs, over a fresh engine per study.
type tracedEvaluator struct {
	t   *tracer
	eng *engine.Engine
	ctx context.Context // the study's span
	// chain is the enclosing chained-prepare span while core's warm and
	// incremental drivers run their prepare closure; those drivers call
	// Prepared from inside it on the study goroutine.
	chain context.Context
}

func (e *tracedEvaluator) Eval(cfg core.Config) (*core.Result, error) {
	return e.t.eval(e.ctx, e.eng, cfg, "")
}

func (e *tracedEvaluator) EvalBatch(cfgs []core.Config) ([]*core.Result, error) {
	return core.RunBatch(cfgs, e.eng.WorkerBound(), e.Eval)
}

func (e *tracedEvaluator) Prepared(cfg core.Config) (*core.Prepared, error) {
	parent := e.ctx
	if e.chain != nil {
		parent = e.chain
	}
	ctx, sp := e.t.begin(parent, "core.prepare", "")
	defer sp.end()
	return e.t.build(ctx, cfg, "")
}

func (e *tracedEvaluator) EvalWith(cfg core.Config, prepare func() (*core.Prepared, error)) (*core.Result, error) {
	ctx, sp := e.t.begin(e.ctx, "engine.eval", "")
	defer sp.end()
	return e.eng.EvalWith(cfg, func() (*core.Prepared, error) {
		cctx, csp := e.t.begin(ctx, "core.chain_prepare", "")
		e.chain = cctx
		p, err := prepare()
		e.chain = nil
		csp.end()
		return p, err
	})
}

func (e *tracedEvaluator) WorkerBound() int { return e.eng.WorkerBound() }

// --- switching between traced and untraced runs ---

// backendFor is the engine itself on untraced runs and its tracing
// wrapper on traced ones.
func backendFor(rc *runCtx, node string, eng *engine.Engine) service.Backend {
	if rc.tr == nil {
		return eng
	}
	return &tracedBackend{t: rc.tr, node: node, eng: eng}
}

func handlerFor(rc *runCtx, node string, h http.Handler) http.Handler {
	if rc.tr == nil {
		return h
	}
	return rc.tr.middleware(node, h)
}

// evalAll evaluates cfgs on eng: EvalBatch on untraced runs, the same
// bounded fan-out through the traced prepare on traced ones.
func evalAll(rc *runCtx, eng *engine.Engine, cfgs []core.Config) ([]*core.Result, error) {
	if rc.tr == nil {
		return eng.EvalBatch(cfgs)
	}
	return core.RunBatch(cfgs, eng.WorkerBound(), func(cfg core.Config) (*core.Result, error) {
		return rc.tr.eval(context.Background(), eng, cfg, "")
	})
}

// timed runs call and returns its latency; on traced runs the call gets a
// fresh trace id and the op's root span.
func (rc *runCtx) timed(ctx context.Context, call func(ctx context.Context) error) (time.Duration, error) {
	if rc.tr == nil {
		t0 := time.Now()
		err := call(ctx)
		return time.Since(t0), err
	}
	ctx, sp := rc.tr.begin(obs.WithTraceID(ctx, obs.NewTraceID()), "op", "")
	t0 := time.Now()
	err := call(ctx)
	lat := time.Since(t0)
	sp.end()
	return lat, err
}

// spanned runs fn inside a span named name on traced runs.
func (rc *runCtx) spanned(name string, fn func() error) error {
	if rc.tr == nil {
		return fn()
	}
	_, sp := rc.tr.begin(context.Background(), name, "")
	defer sp.end()
	return fn()
}

// --- aggregation ---

// spanStats aggregates spans of one name.
type spanStats struct {
	count      int64
	total      time.Duration
	self       time.Duration
	n          int64
	timedCount int64
	timedTotal time.Duration
	timedSelf  time.Duration
	// timedChildren sums the durations of the timed spans' direct children.
	timedChildren time.Duration
}

// handlerSpans are the server-side spans engine.cached probes are linked to.
var handlerSpans = map[string]bool{"service.request": true, "cluster.peer_server": true}

// finish links the context-free cache probes to their handlers and
// aggregates every span by name. Self time is a span's duration minus the
// union of its children's intervals.
func (t *tracer) finish() map[string]*spanStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	spans := t.spans
	linkCacheProbes(spans)

	children := make(map[uint64][]int, len(spans)/2)
	for i := range spans {
		if p := spans[i].Parent; p != 0 {
			children[p] = append(children[p], i)
		}
	}
	out := make(map[string]*spanStats)
	for i := range spans {
		s := &spans[i]
		st := out[s.Name]
		if st == nil {
			st = &spanStats{}
			out[s.Name] = st
		}
		self := s.dur() - childUnion(s, spans, children[s.ID])
		st.count++
		st.total += s.dur()
		st.self += self
		st.n += s.N
		if s.Phase == phaseTimed {
			st.timedCount++
			st.timedTotal += s.dur()
			st.timedSelf += self
			for _, k := range children[s.ID] {
				st.timedChildren += spans[k].dur()
			}
		}
	}
	return out
}

// childUnion is the length of the union of the children's intervals,
// clipped to the parent's.
func childUnion(p *span, spans []span, kids []int) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := max(spans[k].Start, p.Start), min(spans[k].End, p.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, curA, curB int64
	curA, curB = -1, -1
	for _, v := range ivs {
		if v.a > curB {
			total += curB - curA
			curA, curB = v.a, v.b
		} else if v.b > curB {
			curB = v.b
		}
	}
	total += curB - curA
	return time.Duration(total)
}

// linkCacheProbes parents each engine.cached span to the latest-starting
// handler span on the same node whose interval contains it.
func linkCacheProbes(spans []span) {
	byNode := make(map[string][]int)
	for i := range spans {
		if handlerSpans[spans[i].Name] {
			byNode[spans[i].Node] = append(byNode[spans[i].Node], i)
		}
	}
	for _, hs := range byNode {
		sort.Slice(hs, func(a, b int) bool { return spans[hs[a]].Start < spans[hs[b]].Start })
	}
	for i := range spans {
		s := &spans[i]
		if s.Name != "engine.cached" || s.Parent != 0 {
			continue
		}
		hs := byNode[s.Node]
		k := sort.Search(len(hs), func(j int) bool { return spans[hs[j]].Start > s.Start })
		// Handlers overlap only as far as requests run concurrently on one
		// node, so the container is among the last few that started.
		for j := k - 1; j >= 0 && j >= k-64; j-- {
			h := &spans[hs[j]]
			if h.End >= s.End {
				s.Parent, s.ParentInferred, s.Trace = h.ID, true, h.Trace
				break
			}
		}
	}
}

// traceFields names the columns of each span row in the trace file.
var traceFields = []string{"id", "parent", "parent_inferred", "phase", "trace", "name", "node", "start_ns", "end_ns", "n"}

// writeTrace writes every span to path as one JSON document, one array per
// span in traceFields order (a serving run records about a million spans).
func (t *tracer) writeTrace(path, workload string, seed uint64) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriterSize(f, 1<<20)
	fields, _ := json.Marshal(traceFields)
	fmt.Fprintf(bw, "{\"workload\":%q,\"seed\":%d,\"fields\":%s,\"spans\":[\n", workload, seed, fields)
	t.mu.Lock()
	var row []byte
	for i := range t.spans {
		s := &t.spans[i]
		row = row[:0]
		if i > 0 {
			row = append(row, ",\n"...)
		}
		row = append(row, '[')
		row = strconv.AppendUint(row, s.ID, 10)
		row = append(row, ',')
		row = strconv.AppendUint(row, s.Parent, 10)
		row = append(row, ',')
		row = strconv.AppendBool(row, s.ParentInferred)
		row = append(row, ',')
		row = strconv.AppendQuote(row, s.Phase.String())
		row = append(row, ',')
		row = strconv.AppendQuote(row, s.Trace)
		row = append(row, ',')
		row = strconv.AppendQuote(row, s.Name)
		row = append(row, ',')
		row = strconv.AppendQuote(row, s.Node)
		row = append(row, ',')
		row = strconv.AppendInt(row, s.Start, 10)
		row = append(row, ',')
		row = strconv.AppendInt(row, s.End, 10)
		row = append(row, ',')
		row = strconv.AppendInt(row, s.N, 10)
		row = append(row, ']')
		bw.Write(row)
	}
	t.mu.Unlock()
	bw.WriteString("\n]}\n")
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
