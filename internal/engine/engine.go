// Package engine is the memoizing evaluation service the rest of the
// system routes model evaluations through. It sits between the model layer
// (internal/core: SPN → reachability graph → CTMC, one transient solve per
// configuration) and every consumer of results (sweeps, Pareto frontiers,
// figures, baselines, mission assurance, the public API, and the CLIs).
//
// The engine contributes four things on top of core.Direct:
//
//  1. Single-solve reuse: each configuration is solved once; MTTSF, Ĉtotal,
//     the failure split, expected event counts, and survival sampling all
//     derive from that one ctmc.Solution via core.Prepared.
//  2. Patched misses: a miss re-rates a pooled incremental session of the
//     point's structural family (core.PreparedDelta) and re-solves in
//     place, so a family explores and assembles once per engine lifetime
//     (see evaluate). Sweeps, design spaces and the adaptive frontier all
//     reach this one patch driver through Eval.
//  3. Memoization: full Results are cached behind a canonical Config
//     fingerprint (see Fingerprint) in a concurrency-safe LRU with
//     in-flight deduplication, so overlapping grids — SweepTIDS,
//     CompareDetections, TradeoffFrontier, AssureMission, Figures,
//     Baselines — never re-evaluate the same point.
//  4. Bounded batching: EvalBatch fans a slice of configurations over a
//     fixed worker pool (not goroutine-per-point) and joins per-point
//     errors.
//
// Importing this package installs the default engine as core's default
// Evaluator, which is what rewires core.SweepTIDS / ExploreDesignSpace and
// everything above them onto the shared cache.
package engine

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"

	"repro/internal/core"
	"repro/internal/ctmc"
	"repro/internal/faultinject"
	"repro/internal/obs"
)

func init() { core.SetDefaultEvaluator(Default()) }

// Options configures an Engine.
type Options struct {
	// CacheSize bounds the Result LRU (default 4096 entries; Results are
	// small value structs). Large caches are striped across up to 16
	// fingerprint-hashed shards, each holding CacheSize/shards entries,
	// so concurrent EvalBatch hits do not serialize on one mutex.
	CacheSize int
	// PreparedCacheSize bounds the prepared-model LRU by entry count
	// (default 64). It is the secondary bound; PreparedCacheBytes is the
	// primary one, since entries hold full reachability graphs whose
	// footprint varies by orders of magnitude with N.
	PreparedCacheSize int
	// PreparedCacheBytes bounds the prepared-model LRU by the summed
	// core.Prepared.SizeBytes estimates (default 256 MiB). Zero selects
	// the default; negative disables the byte budget.
	PreparedCacheBytes int64
	// Workers bounds EvalBatch parallelism (default GOMAXPROCS).
	Workers int
}

// Stats is a point-in-time snapshot of the engine's accounting.
type Stats struct {
	// Hits counts Evals served from the Result cache (including callers
	// that joined an in-flight evaluation of the same point).
	Hits uint64
	// Misses counts Evals that had to evaluate.
	Misses uint64
	// Evals counts model evaluations performed (== unique points
	// evaluated, absent evictions), whether through a full prepare or a
	// patched re-solve; PatchedSolves below counts the latter.
	Evals uint64
	// Evictions counts Result-cache LRU evictions across all shards.
	Evictions uint64
	// Entries and PreparedEntries are current cache occupancies; a
	// family's pool — its anchor model and its idle incremental sessions
	// — is one prepared entry.
	Entries, PreparedEntries int
	// PreparedBytes is the estimated footprint of the prepared-model LRU:
	// the cached Prepared models and the family pools' anchors and idle
	// sessions.
	PreparedBytes int64

	// PanicsRecovered counts evaluations that panicked and were recovered
	// into per-point errors (the process survived, every joiner was
	// released); NonFiniteRejected counts finished Results refused cache
	// admission because a field was NaN/Inf. Both are per-engine.
	PanicsRecovered   uint64 `json:"panics_recovered"`
	NonFiniteRejected uint64 `json:"non_finite_rejected"`

	// SolverFallbacks totals the solver degradation-ladder fallbacks, and
	// FallbacksByBackend splits them by the backend that failed. They are
	// process-global (the ladder lives in internal/ctmc), surfaced here so
	// /v1/stats and /healthz report solver health next to the cache
	// accounting.
	SolverFallbacks    uint64            `json:"solver_fallbacks"`
	FallbacksByBackend map[string]uint64 `json:"fallbacks_by_backend,omitempty"`

	// PatchedSolves, Refactorizations, and StructuralRepreps account for
	// the incremental re-solve path: solves served by patching the cached
	// generator pattern in place, ILU(0) factorizations of patched values
	// (one per patched point the exact direct solve does not answer), and
	// incremental points that fell back to a full structural re-prepare.
	// They are process-global (the counters live in internal/ctmc and
	// internal/core, shared by every PreparedDelta), reported here so
	// /v1/stats and the CLIs surface them alongside the cache accounting.
	PatchedSolves     uint64 `json:"patched_solves"`
	Refactorizations  uint64 `json:"refactorizations"`
	StructuralRepreps uint64 `json:"structural_repreps"`
}

// String renders the stats for CLI output.
func (s Stats) String() string {
	total := s.Hits + s.Misses
	ratio := 0.0
	if total > 0 {
		ratio = float64(s.Hits) / float64(total)
	}
	return fmt.Sprintf("engine: %d evals, %d hits / %d lookups (%.0f%% hit rate), %d cached results, %d cached models (~%.1f MiB)",
		s.Evals, s.Hits, total, 100*ratio, s.Entries, s.PreparedEntries, float64(s.PreparedBytes)/(1<<20))
}

// Engine is a concurrency-safe memoizing evaluator. The zero value is not
// usable; construct with New or use Default.
//
// The Result cache and its in-flight deduplication map are striped across
// fingerprint-hashed shards, each behind its own mutex, so concurrent
// cache hits from EvalBatch workers touch disjoint locks. Hit/miss/eval
// accounting is kept in atomics shared across shards. The prepared-model
// cache stays behind one mutex: it is touched once or twice per miss (to
// take and return a pooled session, or to find and cache a full prepare)
// and the lock is never held across a build, a clone or a solve.
type Engine struct {
	workers int

	shards []resultShard

	pmu sync.Mutex
	// prepared maps fingerprints to full *core.Prepared models and
	// poolKey(family) to that structural family's *sessionPool, all under
	// one byte budget.
	prepared *lruCache
	// anchoring maps poolKey(family) to the family's in-flight anchor
	// prepare. It is not a cache: an entry lives only while its leader
	// runs, and Reset leaves it alone.
	anchoring map[string]*anchorCall

	// Counters live in the engine's own metric registry (reg) so each
	// Engine instance owns its series — tests build many engines per
	// process without name collisions — while GET /metrics concatenates
	// the serving engine's registry into the scrape. The handles are
	// plain atomics underneath; counting paths cost what they always did.
	reg                 *obs.Registry
	hits, misses, evals *obs.Counter

	// panicsRecovered counts evaluations that panicked and were converted
	// to errors; nonFiniteRejected counts finished Results the cache-
	// admission validation refused (NaN/Inf anywhere in the value).
	panicsRecovered, nonFiniteRejected *obs.Counter
}

// resultShard is one stripe of the Result cache.
type resultShard struct {
	mu       sync.Mutex
	results  *lruCache // fingerprint -> core.Result (value copy)
	inflight map[string]*inflightCall
}

// inflightCall deduplicates concurrent evaluations of the same point: the
// first caller evaluates, the rest wait and share the outcome.
type inflightCall struct {
	done chan struct{}
	res  core.Result
	err  error
}

// maxShards bounds the Result-cache striping.
const maxShards = 16

// defaultPreparedBytes is the default prepared-model byte budget.
const defaultPreparedBytes = 256 << 20

// New constructs an Engine.
func New(opts Options) *Engine {
	if opts.CacheSize <= 0 {
		opts.CacheSize = 4096
	}
	if opts.PreparedCacheSize <= 0 {
		opts.PreparedCacheSize = 64
	}
	if opts.PreparedCacheBytes == 0 {
		opts.PreparedCacheBytes = defaultPreparedBytes
	} else if opts.PreparedCacheBytes < 0 {
		opts.PreparedCacheBytes = 0
	}
	if opts.Workers <= 0 {
		opts.Workers = runtime.GOMAXPROCS(0)
	}
	// Stripe only when each shard still holds a useful number of entries;
	// tiny caches keep exact global LRU semantics in a single shard.
	nShards := 1
	for nShards < maxShards && opts.CacheSize/(2*nShards) >= 64 {
		nShards *= 2
	}
	e := &Engine{
		workers:   opts.Workers,
		shards:    make([]resultShard, nShards),
		prepared:  newLRUBytes(opts.PreparedCacheSize, opts.PreparedCacheBytes),
		anchoring: make(map[string]*anchorCall),
	}
	per := (opts.CacheSize + nShards - 1) / nShards
	for i := range e.shards {
		e.shards[i] = resultShard{results: newLRU(per), inflight: make(map[string]*inflightCall)}
	}
	e.reg = obs.NewRegistry()
	e.hits = e.reg.Counter("repro_engine_cache_hits_total",
		"Result-cache hits, including joins on in-flight evaluations.")
	e.misses = e.reg.Counter("repro_engine_cache_misses_total",
		"Result-cache misses that started an evaluation.")
	e.evals = e.reg.Counter("repro_engine_evals_total",
		"Model evaluations performed, full prepares and patched re-solves alike (repro_incremental_patched_solves_total counts the latter).")
	e.panicsRecovered = e.reg.Counter("repro_engine_panics_recovered_total",
		"Evaluations that panicked and were converted to errors.")
	e.nonFiniteRejected = e.reg.Counter("repro_engine_nonfinite_rejected_total",
		"Finished results refused by cache-admission validation (NaN/Inf).")
	e.reg.GaugeFunc("repro_engine_cache_entries",
		"Result-cache entries currently held across all shards.",
		func() float64 {
			n := 0
			for i := range e.shards {
				sh := &e.shards[i]
				sh.mu.Lock()
				n += sh.results.len()
				sh.mu.Unlock()
			}
			return float64(n)
		})
	e.reg.CounterFunc("repro_engine_cache_evictions_total",
		"Result-cache LRU evictions across all shards.",
		func() float64 {
			var n uint64
			for i := range e.shards {
				sh := &e.shards[i]
				sh.mu.Lock()
				n += sh.results.evictions
				sh.mu.Unlock()
			}
			return float64(n)
		})
	e.reg.GaugeFunc("repro_engine_prepared_entries",
		"Prepared-model cache entries currently held (a family's pool, its anchor and idle sessions, is one entry).",
		func() float64 {
			e.pmu.Lock()
			defer e.pmu.Unlock()
			return float64(e.prepared.len())
		})
	e.reg.GaugeFunc("repro_engine_prepared_bytes",
		"Estimated bytes held by the prepared-model cache, family anchors and idle sessions included.",
		func() float64 {
			e.pmu.Lock()
			defer e.pmu.Unlock()
			return float64(e.prepared.sizeBytes())
		})
	return e
}

// Metrics returns the engine's metric registry, for the serving layer's
// /metrics exposition.
func (e *Engine) Metrics() *obs.Registry { return e.reg }

// shardFor hashes a fingerprint onto its stripe (FNV-1a).
func (e *Engine) shardFor(key string) *resultShard {
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= 16777619
	}
	return &e.shards[h&uint32(len(e.shards)-1)]
}

var defaultEngine = New(Options{})

// Default returns the process-wide engine the public API's free functions
// and core's grid drivers share.
func Default() *Engine { return defaultEngine }

// Eval evaluates one configuration, serving repeats from cache. The
// returned Result is the caller's own copy.
func (e *Engine) Eval(cfg core.Config) (*core.Result, error) {
	return e.EvalContext(context.Background(), cfg)
}

// EvalContext is Eval with cancellation: a canceled context stops the
// caller from starting a new model evaluation (the expensive part — graph
// exploration plus the transient solve) and abandons any wait on an
// in-flight evaluation of the same point. An evaluation already underway
// runs to completion and is cached — the work is done either way, and a
// concurrent live caller may be waiting on it — so cancellation is
// observed at point granularity, which is what lets a server stop burning
// solver time on the remaining points of an abandoned batch.
func (e *Engine) EvalContext(ctx context.Context, cfg core.Config) (*core.Result, error) {
	key := Fingerprint(cfg)
	return e.evalShared(ctx, key, cfg, func() (*core.Result, error) {
		return e.evaluate(key, cfg)
	})
}

// Cached returns cfg's memoized Result when one is recorded, without
// evaluating, joining an in-flight evaluation, or counting a miss — a
// pure probe for callers that gate expensive-path resources (the HTTP
// service's solve semaphore) and must not charge cache hits against
// them. A found Result counts as a hit and is the caller's own copy.
func (e *Engine) Cached(cfg core.Config) (*core.Result, bool) {
	key := Fingerprint(cfg)
	sh := e.shardFor(key)
	sh.mu.Lock()
	v, ok := sh.results.get(key)
	sh.mu.Unlock()
	if !ok {
		return nil, false
	}
	e.hits.Add(1)
	r := v.(core.Result)
	r.Config = cfg
	return &r, true
}

// JoinInflight joins an in-flight evaluation of cfg when one is underway
// (or serves the point if it completed in the meantime), returning
// joined=false immediately otherwise. It lets callers that meter fresh
// solver work — the HTTP service's solve semaphore — wait on someone
// else's evaluation without consuming solve capacity: duplicate cold
// points across concurrent batches then pin one solve slot, not one per
// waiter. A join that ends in the computing caller's error reports that
// error, exactly like joining through EvalContext.
func (e *Engine) JoinInflight(ctx context.Context, cfg core.Config) (res *core.Result, joined bool, err error) {
	key := Fingerprint(cfg)
	sh := e.shardFor(key)
	sh.mu.Lock()
	if v, ok := sh.results.get(key); ok {
		sh.mu.Unlock()
		e.hits.Add(1)
		r := v.(core.Result)
		r.Config = cfg
		return &r, true, nil
	}
	c, ok := sh.inflight[key]
	sh.mu.Unlock()
	if !ok {
		return nil, false, nil
	}
	select {
	case <-c.done:
	case <-ctx.Done():
		return nil, true, ctx.Err()
	}
	if c.err != nil {
		return nil, true, c.err
	}
	e.hits.Add(1)
	r := c.res
	r.Config = cfg
	return &r, true, nil
}

// evalShared is the cache/in-flight spine Eval, EvalContext, and EvalWith
// run through: serve a recorded Result, join an in-flight evaluation of
// the same point, or register one and wait on it. Every miss path shares
// it, so the "each unique point evaluated exactly once" invariant holds
// across concurrent Evals, batches, and warm sweeps alike.
//
// The evaluation itself runs on its own goroutine (runEval) and every
// caller — including the one that registered it — is a joiner selecting on
// completion versus its own context. That is what makes the engine
// watchdog-compatible: a caller whose deadline fires mid-solve walks away
// with ctx.Err() while the solve runs to completion in the background and
// is cached for the next asker, and a canceled caller can never poison the
// shared outcome for live ones. runEval also recovers panics (converted to
// errors delivered to every joiner — never a deadlock, never a process
// death) and refuses to admit non-finite Results to the cache.
func (e *Engine) evalShared(ctx context.Context, key string, cfg core.Config, compute func() (*core.Result, error)) (*core.Result, error) {
	sh := e.shardFor(key)
	sh.mu.Lock()
	if v, ok := sh.results.get(key); ok {
		sh.mu.Unlock()
		e.hits.Add(1)
		r := v.(core.Result)
		r.Config = cfg // caller's own spelling; no aliasing into the cache
		return &r, nil
	}
	c, registered := sh.inflight[key], false
	if c == nil {
		if err := ctx.Err(); err != nil {
			sh.mu.Unlock()
			return nil, err
		}
		c = &inflightCall{done: make(chan struct{})}
		sh.inflight[key] = c
		registered = true
	}
	sh.mu.Unlock()
	if registered {
		e.misses.Add(1)
		go e.runEval(sh, key, c, compute)
	}
	select {
	case <-c.done:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	if c.err != nil {
		return nil, c.err
	}
	if !registered {
		e.hits.Add(1)
	}
	r := c.res
	r.Config = cfg
	return &r, nil
}

// runEval performs one registered evaluation: run compute (recovering any
// panic into an error), validate the Result for cache admission, publish
// to the shard, and release every joiner. It always deregisters the
// in-flight entry and closes done — a wedged entry would block every later
// Eval of this key forever.
func (e *Engine) runEval(sh *resultShard, key string, c *inflightCall, compute func() (*core.Result, error)) {
	var res *core.Result
	var err error
	func() {
		defer func() {
			if p := recover(); p != nil {
				e.panicsRecovered.Add(1)
				res, err = nil, fmt.Errorf("%w: %v", ErrEvalPanic, p)
			}
		}()
		res, err = compute()
	}()
	if err == nil && res == nil {
		err = fmt.Errorf("engine: evaluation returned no result")
	}
	if err == nil {
		if faultinject.Fire(faultinject.EngineNonFinite) {
			r := *res
			r.MTTSF = math.NaN()
			res = &r
		}
		// Poison-proofing: a Result with any non-finite field is never
		// admitted to the cache (and therefore can never reach a
		// snapshot); it is an error to this point's callers only.
		if verr := ValidateResult(res); verr != nil {
			e.nonFiniteRejected.Add(1)
			res, err = nil, fmt.Errorf("%w: %v", ErrNonFinite, verr)
		}
	}
	sh.mu.Lock()
	delete(sh.inflight, key)
	if err == nil {
		c.res = *res
		sh.results.add(key, c.res)
	}
	c.err = err
	sh.mu.Unlock()
	close(c.done)
}

// evaluate performs a cache miss, the engine's one patch driver. It
// patches cfg on a session of its structural family (sessionFor) and
// re-solves; the session goes back to the pool once Analyze has returned,
// because the patched Prepared aliases the session's working arrays and
// the next user may patch only after the Result (a fresh struct) is
// built. A patched Prepared is never cached. A point the session cannot
// take — a structural delta or any solve failure — drops the session (its
// state is suspect) and takes its own full prepare, cached under its
// fingerprint. The family's first miss has no session to take: it leads
// the family's anchor prepare, publishing the anchor as soon as
// core.Prepare returns so the misses waiting on it clone their sessions
// while it solves. A leader that fails or panics publishes nothing and
// still releases its waiters, which then take their own full prepares.
func (e *Engine) evaluate(key string, cfg core.Config) (*core.Result, error) {
	family := poolKey(cfg)
	pd, publish := e.sessionFor(family)
	if publish != nil {
		defer publish(nil) // no-op once the anchor is published
	}
	if faultinject.Fire(faultinject.EnginePanic) {
		panic("faultinject: forced panic inside engine evaluation")
	}
	if pd != nil {
		if p, err := pd.Prepared(cfg); err == nil {
			if res, err := p.Analyze(); err == nil {
				e.evals.Add(1)
				e.putSession(family, pd)
				return res, nil
			}
		}
	}
	var p *core.Prepared
	var err error
	if publish != nil {
		if p = e.cachedModel(key); p == nil {
			p, err = core.Prepare(cfg)
		}
		if err == nil {
			publish(p)
		}
	} else {
		p, err = e.preparedFor(key, cfg)
	}
	if err != nil {
		return nil, err
	}
	e.evals.Add(1)
	return p.Analyze()
}

// sessionPool is one structural family's entry in the prepared LRU, under
// the family's poolKey: the family's anchor — the first full prepare of
// one of its points — and up to e.workers idle sessions cloned from it. It
// is charged at the anchor's and the sessions' summed estimates, so both
// sit under the same byte budget as the cached models and an eviction
// drops them. A session is in the pool only while idle: sessionFor
// removes it, so no two goroutines ever share one.
type sessionPool struct {
	anchor *core.Prepared
	// anchorBytes is anchor.SizeBytes(), taken once when the anchor is
	// published: the estimate walks the chain's pattern, and the pool is
	// re-charged on every take and return.
	anchorBytes int64
	idle        []*core.PreparedDelta
}

func (sp *sessionPool) sizeBytes() int64 {
	n := sp.anchorBytes
	for _, pd := range sp.idle {
		n += pd.SizeBytes()
	}
	return n
}

// anchorCall is a family's in-flight anchor prepare. Misses of the family
// that find no anchor wait on done and clone from anchor, which stays nil
// when the leader failed.
type anchorCall struct {
	done   chan struct{}
	anchor *core.Prepared
}

// poolKey is the prepared-LRU key of cfg's structural family pool. The
// prefix cannot begin a Fingerprint, so pools and models never collide.
func poolKey(cfg core.Config) string { return "pool|" + core.StructuralKey(cfg) }

// sessionFor returns a session of the family to patch a miss on: an idle
// one from the pool, else a fresh clone of the family's anchor. A family
// with no anchor yet has at most one anchor prepare in flight: a miss that
// finds one waits for it and clones from what it publishes, and a miss
// that finds none becomes the leader. The leader gets no session but a
// publish function it must call (deferred, so a panic cannot wedge the
// waiters): publish(p) makes p the anchor and releases the waiters, and
// publish(nil) releases them with nothing to clone; only the first call
// takes effect. A nil session with a nil publish means the caller takes
// its own full prepare.
func (e *Engine) sessionFor(family string) (*core.PreparedDelta, func(*core.Prepared)) {
	e.pmu.Lock()
	var anchor *core.Prepared
	if v, ok := e.prepared.get(family); ok {
		sp := v.(*sessionPool)
		if n := len(sp.idle); n > 0 {
			pd := sp.idle[n-1]
			sp.idle[n-1] = nil
			sp.idle = sp.idle[:n-1]
			e.prepared.addSized(family, sp, sp.sizeBytes())
			e.pmu.Unlock()
			return pd, nil
		}
		anchor = sp.anchor
	}
	call, inFlight := e.anchoring[family]
	switch {
	case anchor != nil:
		e.pmu.Unlock()
	case inFlight:
		e.pmu.Unlock()
		<-call.done
		if anchor = call.anchor; anchor == nil {
			return nil, nil
		}
	default:
		call = &anchorCall{done: make(chan struct{})}
		e.anchoring[family] = call
		e.pmu.Unlock()
		return nil, func(p *core.Prepared) { e.publishAnchor(family, call, p) }
	}
	pd, err := core.NewPreparedDelta(anchor)
	if err != nil {
		return nil, nil // the miss takes its own full prepare
	}
	return pd, nil
}

// publishAnchor ends the family's in-flight anchor prepare: a non-nil p
// becomes the pool's anchor, and every waiter is released. Only the first
// call for a given call takes effect.
func (e *Engine) publishAnchor(family string, call *anchorCall, p *core.Prepared) {
	var size int64
	if p != nil {
		size = p.SizeBytes()
	}
	e.pmu.Lock()
	defer e.pmu.Unlock()
	select {
	case <-call.done:
		return
	default:
	}
	delete(e.anchoring, family)
	if p != nil {
		sp := &sessionPool{}
		if v, ok := e.prepared.get(family); ok {
			sp = v.(*sessionPool)
		}
		sp.anchor, sp.anchorBytes = p, size
		e.prepared.addSized(family, sp, sp.sizeBytes())
	}
	call.anchor = p
	close(call.done)
}

// putSession returns an idle session to its family's pool, which keeps at
// most e.workers sessions: one per concurrent miss the batch pool can
// issue. A session the pool has no room for is dropped.
func (e *Engine) putSession(family string, pd *core.PreparedDelta) {
	e.pmu.Lock()
	defer e.pmu.Unlock()
	sp := &sessionPool{}
	if v, ok := e.prepared.get(family); ok {
		sp = v.(*sessionPool)
	}
	if len(sp.idle) >= e.workers {
		return
	}
	sp.idle = append(sp.idle, pd)
	e.prepared.addSized(family, sp, sp.sizeBytes())
}

// cachedModel returns the full prepared model cached under key, or nil.
func (e *Engine) cachedModel(key string) *core.Prepared {
	e.pmu.Lock()
	defer e.pmu.Unlock()
	if v, ok := e.prepared.get(key); ok {
		return v.(*core.Prepared)
	}
	return nil
}

// preparedFor returns the cached prepared model for key, building and
// caching it when absent. Callers racing on the same key are already
// serialized by the in-flight map in Eval; Prepared and Survival callers
// may rarely build a duplicate, which is correct (just not free).
func (e *Engine) preparedFor(key string, cfg core.Config) (*core.Prepared, error) {
	if p := e.cachedModel(key); p != nil {
		return p, nil
	}
	p, err := core.Prepare(cfg)
	if err != nil {
		return nil, err
	}
	e.pmu.Lock()
	e.prepared.addSized(key, p, p.SizeBytes())
	e.pmu.Unlock()
	return p, nil
}

// Prepared returns the (cached) fully built evaluation state for a
// configuration, for callers that need graph-level access. It is always a
// full prepare of cfg itself, never a patched session's working state.
func (e *Engine) Prepared(cfg core.Config) (*core.Prepared, error) {
	return e.preparedFor(Fingerprint(cfg), cfg)
}

// EvalWith evaluates cfg through the result cache and in-flight dedup like
// Eval, but a miss calls the caller's prepare — its own build (and solve)
// of cfg — instead of the family pool, and records the fresh Result so
// later Evals of the same point are ordinary hits. The bench harness's
// traced path uses it to time each stage of a full prepare.
func (e *Engine) EvalWith(cfg core.Config, prepare func() (*core.Prepared, error)) (*core.Result, error) {
	return e.EvalWithContext(context.Background(), cfg, prepare)
}

// EvalWithContext is EvalWith with EvalContext's cancellation semantics: a
// canceled caller stops before registering a fresh evaluation, or walks
// away from one already underway (which runs to completion and is cached).
func (e *Engine) EvalWithContext(ctx context.Context, cfg core.Config, prepare func() (*core.Prepared, error)) (*core.Result, error) {
	return e.evalShared(ctx, Fingerprint(cfg), cfg, func() (*core.Result, error) {
		p, err := prepare()
		if err != nil {
			return nil, err
		}
		e.evals.Add(1)
		return p.Analyze()
	})
}

// EvalBatch evaluates a slice of configurations over the engine's bounded
// worker pool, preserving order. Duplicate points within a batch collapse
// onto one evaluation through the in-flight map.
func (e *Engine) EvalBatch(cfgs []core.Config) ([]*core.Result, error) {
	return e.EvalBatchContext(context.Background(), cfgs)
}

// EvalBatchContext is EvalBatch with cancellation: every worker checks the
// context before starting its next point, so canceling an abandoned batch
// stops new solves immediately (points already mid-solve finish and are
// cached). Canceled points report ctx.Err() in the joined error.
func (e *Engine) EvalBatchContext(ctx context.Context, cfgs []core.Config) ([]*core.Result, error) {
	return core.RunBatch(cfgs, e.workers, func(cfg core.Config) (*core.Result, error) {
		return e.EvalContext(ctx, cfg)
	})
}

// WorkerBound reports the engine's batch-parallelism cap, so core's grid
// sweeps fan out under the same bound as EvalBatch.
func (e *Engine) WorkerBound() int { return e.workers }

// Survival estimates the survival function with reps exact CTMC samples,
// reusing the cached reachability graph for the configuration.
func (e *Engine) Survival(cfg core.Config, reps int, seed int64) (*core.SurvivalCurve, error) {
	if reps < 1 {
		return nil, fmt.Errorf("engine: need at least 1 replication")
	}
	p, err := e.Prepared(cfg)
	if err != nil {
		return nil, err
	}
	return p.Survival(reps, seed)
}

// AssureMission evaluates P(survive missionTime) across a TIDS grid with
// reps samples per point — the same grid search as core.AssureMission
// (shared via core.AssureMissionWith), but sampling over the engine's
// cached reachability graphs.
func (e *Engine) AssureMission(cfg core.Config, grid []float64, missionTime float64, reps int, seed int64) (*core.MissionAssurance, error) {
	return core.AssureMissionWith(cfg, grid, missionTime, reps, seed, e.Survival)
}

// Stats snapshots the engine's accounting.
func (e *Engine) Stats() Stats {
	s := Stats{
		Hits:   e.hits.Value(),
		Misses: e.misses.Value(),
		Evals:  e.evals.Value(),
	}
	for i := range e.shards {
		sh := &e.shards[i]
		sh.mu.Lock()
		s.Evictions += sh.results.evictions
		s.Entries += sh.results.len()
		sh.mu.Unlock()
	}
	e.pmu.Lock()
	s.PreparedEntries = e.prepared.len()
	s.PreparedBytes = e.prepared.sizeBytes()
	e.pmu.Unlock()
	s.PanicsRecovered = e.panicsRecovered.Value()
	s.NonFiniteRejected = e.nonFiniteRejected.Value()
	s.SolverFallbacks = ctmc.Fallbacks()
	if fb := ctmc.FallbacksByBackend(); len(fb) > 0 {
		s.FallbacksByBackend = fb
	}
	s.PatchedSolves = ctmc.PatchedSolves()
	s.Refactorizations = ctmc.Refactorizations()
	s.StructuralRepreps = core.StructuralRepreps()
	return s
}

// Reset empties both caches, family pools included, and zeroes the
// counters (test support). An anchor prepare in flight still publishes
// into the emptied cache when it finishes.
func (e *Engine) Reset() {
	for i := range e.shards {
		sh := &e.shards[i]
		sh.mu.Lock()
		sh.results.reset()
		sh.mu.Unlock()
	}
	e.pmu.Lock()
	e.prepared.reset()
	e.pmu.Unlock()
	e.hits.Reset()
	e.misses.Reset()
	e.evals.Reset()
	e.panicsRecovered.Reset()
	e.nonFiniteRejected.Reset()
}
