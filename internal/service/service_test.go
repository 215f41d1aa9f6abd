package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
)

// testConfig returns a small, fast configuration.
func testConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.N = 12
	return cfg
}

func testGridConfigs() []core.Config {
	grid := []float64{30, 60, 120, 240}
	cfgs := make([]core.Config, len(grid))
	for i, tids := range grid {
		cfgs[i] = testConfig()
		cfgs[i].TIDS = tids
	}
	return cfgs
}

// newTestServer wires a fresh engine behind a httptest server and returns
// the engine, the base URL, and a matching client.
func newTestServer(t *testing.T, opts Options) (*engine.Engine, *Client) {
	t.Helper()
	eng := engine.New(engine.Options{})
	if opts.Backend == nil {
		opts.Backend = eng
	}
	ts := httptest.NewServer(New(opts))
	t.Cleanup(ts.Close)
	return eng, NewClient(ts.URL, ts.Client())
}

// TestRemoteMatchesInProcess is the acceptance test for the wire format:
// a batch served over HTTP must be byte-equal to the same batch evaluated
// in process (identical JSON encodings, field for field, bit for bit).
func TestRemoteMatchesInProcess(t *testing.T) {
	eng, client := newTestServer(t, Options{})
	cfgs := testGridConfigs()

	want, err := eng.EvalBatch(cfgs) // in-process reference
	if err != nil {
		t.Fatal(err)
	}
	got, err := client.EvalBatch(context.Background(), cfgs)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("remote batch returned %d results, want %d", len(got), len(want))
	}
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("point %d: remote result differs structurally from in-process", i)
		}
		wantJSON, _ := json.Marshal(want[i])
		gotJSON, _ := json.Marshal(got[i])
		if !bytes.Equal(wantJSON, gotJSON) {
			t.Errorf("point %d: remote result not byte-equal to in-process:\n remote %s\n local  %s", i, gotJSON, wantJSON)
		}
	}

	// Single-point endpoint agrees too.
	single, err := client.Analyze(context.Background(), cfgs[0])
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(single, want[0]) {
		t.Error("POST /v1/eval result differs from in-process Eval")
	}
}

// TestConcurrentRemoteBatches fans several clients over the same server
// concurrently; every caller must observe identical results while the
// engine evaluates each unique point exactly once.
func TestConcurrentRemoteBatches(t *testing.T) {
	// MaxInflight above the caller count: this test is about result
	// determinism under concurrency, not admission control (on a 1-core
	// runner the GOMAXPROCS-scaled default would 429 the excess callers).
	eng, client := newTestServer(t, Options{MaxInflight: 16})
	cfgs := testGridConfigs()

	const callers = 6
	results := make([][]*core.Result, callers)
	errs := make([]error, callers)
	done := make(chan int, callers)
	for c := 0; c < callers; c++ {
		go func(c int) {
			results[c], errs[c] = client.EvalBatch(context.Background(), cfgs)
			done <- c
		}(c)
	}
	for range callers {
		<-done
	}
	for c := 0; c < callers; c++ {
		if errs[c] != nil {
			t.Fatalf("caller %d: %v", c, errs[c])
		}
		for i := range cfgs {
			if results[c][i].MTTSF != results[0][i].MTTSF {
				t.Fatalf("caller %d point %d diverges", c, i)
			}
		}
	}
	if st := eng.Stats(); st.Evals != uint64(len(cfgs)) {
		t.Fatalf("engine performed %d evals for %d unique points", st.Evals, len(cfgs))
	}
}

// TestBatchPerPointErrors pins that a point failing at evaluation time
// (here: an exploration bound it cannot satisfy) surfaces as that point's
// error while the healthy points still return results.
func TestBatchPerPointErrors(t *testing.T) {
	_, client := newTestServer(t, Options{})
	good := testConfig()
	bad := testConfig()
	bad.MaxStates = bad.N + 1 // valid per Validate, but exploration cannot fit
	results, err := client.EvalBatch(context.Background(), []core.Config{good, bad})
	if err == nil {
		t.Fatal("batch with an unexplorable point returned nil error")
	}
	if !strings.Contains(err.Error(), "point 1") {
		t.Errorf("joined error %q does not name the failing point", err)
	}
	if results[0] == nil {
		t.Error("healthy point missing from partial results")
	}
	if results[1] != nil {
		t.Error("failed point returned a result")
	}
}

// TestRequestValidation pins the 400 family: undecodable JSON, empty and
// oversized batches, and configurations that fail Validate are rejected
// before touching the engine.
func TestRequestValidation(t *testing.T) {
	eng := engine.New(engine.Options{})
	ts := httptest.NewServer(New(Options{Backend: eng, MaxBatchPoints: 2}))
	t.Cleanup(ts.Close)

	post := func(path, body string) int {
		t.Helper()
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}

	if got := post("/v1/eval", "{not json"); got != http.StatusBadRequest {
		t.Errorf("undecodable eval body: HTTP %d, want 400", got)
	}
	if got := post("/v1/batch", `{"configs":[]}`); got != http.StatusBadRequest {
		t.Errorf("empty batch: HTTP %d, want 400", got)
	}
	three, _ := json.Marshal(BatchRequest{Configs: testGridConfigs()[:3]})
	if got := post("/v1/batch", string(three)); got != http.StatusBadRequest {
		t.Errorf("oversized batch: HTTP %d, want 400", got)
	}
	invalid := testConfig()
	invalid.N = 1 // fails Validate
	one, _ := json.Marshal(EvalRequest{Config: invalid})
	if got := post("/v1/eval", string(one)); got != http.StatusBadRequest {
		t.Errorf("invalid config: HTTP %d, want 400", got)
	}
	// An N whose tables would exhaust memory before exploration bounds
	// them is rejected, not built.
	huge := testConfig()
	huge.N = 1 << 40
	body, _ := json.Marshal(EvalRequest{Config: huge})
	if got := post("/v1/eval", string(body)); got != http.StatusBadRequest {
		t.Errorf("N = 1<<40: HTTP %d, want 400", got)
	}
	if st := eng.Stats(); st.Misses != 0 {
		t.Errorf("rejected requests reached the engine: %+v", st)
	}
}

// blockingBackend parks every EvalContext until release is closed (or the
// context is canceled), so tests can hold admission slots deterministically.
type blockingBackend struct {
	started chan struct{} // receives one value per EvalContext entered
	release chan struct{}
}

func (b *blockingBackend) EvalContext(ctx context.Context, cfg core.Config) (*core.Result, error) {
	select {
	case b.started <- struct{}{}:
	default:
	}
	select {
	case <-b.release:
		return &core.Result{Config: cfg, MTTSF: 1}, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

func (b *blockingBackend) Cached(core.Config) (*core.Result, bool) { return nil, false }
func (b *blockingBackend) JoinInflight(context.Context, core.Config) (*core.Result, bool, error) {
	return nil, false, nil
}
func (b *blockingBackend) Stats() engine.Stats { return engine.Stats{} }
func (b *blockingBackend) WorkerBound() int    { return 2 }

// TestAdmissionControl pins the overload contract: with MaxInflight=1 and
// one request parked in the backend, the next request is rejected
// immediately with 429 (ErrOverloaded through the client), and admission
// recovers once the slot frees.
func TestAdmissionControl(t *testing.T) {
	backend := &blockingBackend{started: make(chan struct{}, 8), release: make(chan struct{})}
	ts := httptest.NewServer(New(Options{Backend: backend, MaxInflight: 1}))
	t.Cleanup(ts.Close)
	client := NewClient(ts.URL, ts.Client())

	firstDone := make(chan error, 1)
	go func() {
		_, err := client.Analyze(context.Background(), testConfig())
		firstDone <- err
	}()
	select {
	case <-backend.started: // first request holds the only slot
	case <-time.After(5 * time.Second):
		t.Fatal("first request never reached the backend")
	}

	_, err := client.Analyze(context.Background(), testConfig())
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("second request: err = %v, want ErrOverloaded", err)
	}

	close(backend.release)
	if err := <-firstDone; err != nil {
		t.Fatalf("first request failed after release: %v", err)
	}
	// Slot free again: a fresh request is admitted.
	if _, err := client.Analyze(context.Background(), testConfig()); err != nil {
		t.Fatalf("request after recovery: %v", err)
	}
}

// TestRequestCancellation pins that an abandoned request's context reaches
// the backend: cancel the client call, and the parked evaluation unblocks
// with the cancellation instead of running on.
func TestRequestCancellation(t *testing.T) {
	backend := &blockingBackend{started: make(chan struct{}, 8), release: make(chan struct{})}
	ts := httptest.NewServer(New(Options{Backend: backend}))
	t.Cleanup(ts.Close)
	client := NewClient(ts.URL, ts.Client())

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := client.EvalBatch(ctx, []core.Config{testConfig()})
		done <- err
	}()
	select {
	case <-backend.started:
	case <-time.After(5 * time.Second):
		t.Fatal("request never reached the backend")
	}
	cancel()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("canceled request returned nil error")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("canceled request never returned; the context is not plumbed through")
	}
}

// TestGlobalSolveBound pins the two-level bounding: even with admission
// slots to spare, at most WorkerBound point evaluations reach the backend
// concurrently across all admitted requests (here WorkerBound=1, so the
// second request must queue on the solve semaphore, not run).
func TestGlobalSolveBound(t *testing.T) {
	backend := &boundedBlockingBackend{started: make(chan struct{}, 8), release: make(chan struct{})}
	ts := httptest.NewServer(New(Options{Backend: backend, MaxInflight: 8}))
	t.Cleanup(ts.Close)
	client := NewClient(ts.URL, ts.Client())

	done := make(chan error, 2)
	for i := 0; i < 2; i++ {
		go func() {
			_, err := client.Analyze(context.Background(), testConfig())
			done <- err
		}()
	}
	select {
	case <-backend.started:
	case <-time.After(5 * time.Second):
		t.Fatal("no request reached the backend")
	}
	// The second admitted request must be queued on the solve semaphore,
	// not evaluating: the backend sees no second arrival while the first
	// is parked.
	select {
	case <-backend.started:
		t.Fatal("second evaluation ran concurrently despite WorkerBound=1")
	case <-time.After(150 * time.Millisecond):
	}
	close(backend.release)
	for i := 0; i < 2; i++ {
		if err := <-done; err != nil {
			t.Fatalf("request failed after release: %v", err)
		}
	}
}

// TestWarmHitsBypassSolveSemaphore pins the warm-path QoS contract: a
// cached point is served even while every solve slot is held by a long
// cold evaluation (WorkerBound=1, one request parked in the backend).
func TestWarmHitsBypassSolveSemaphore(t *testing.T) {
	backend := &boundedBlockingBackend{started: make(chan struct{}, 8), release: make(chan struct{}), warmTIDS: 999}
	ts := httptest.NewServer(New(Options{Backend: backend, MaxInflight: 8}))
	t.Cleanup(ts.Close)
	client := NewClient(ts.URL, ts.Client())

	coldDone := make(chan error, 1)
	go func() {
		_, err := client.Analyze(context.Background(), testConfig())
		coldDone <- err
	}()
	select {
	case <-backend.started: // the only solve slot is now held
	case <-time.After(5 * time.Second):
		t.Fatal("cold request never reached the backend")
	}

	warm := testConfig()
	warm.TIDS = 999
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	res, err := client.Analyze(ctx, warm)
	if err != nil {
		t.Fatalf("warm hit stalled behind the held solve slot: %v", err)
	}
	if res.MTTSF != 42 {
		t.Fatalf("warm hit returned MTTSF %v, want the cached 42", res.MTTSF)
	}

	close(backend.release)
	if err := <-coldDone; err != nil {
		t.Fatalf("cold request failed after release: %v", err)
	}
}

// boundedBlockingBackend is blockingBackend with WorkerBound 1; configs
// with TIDS == warmTIDS are served from its fake cache.
type boundedBlockingBackend struct {
	started  chan struct{}
	release  chan struct{}
	warmTIDS float64
}

func (b *boundedBlockingBackend) EvalContext(ctx context.Context, cfg core.Config) (*core.Result, error) {
	b.started <- struct{}{}
	select {
	case <-b.release:
		return &core.Result{Config: cfg, MTTSF: 1}, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

func (b *boundedBlockingBackend) Cached(cfg core.Config) (*core.Result, bool) {
	if b.warmTIDS != 0 && cfg.TIDS == b.warmTIDS {
		return &core.Result{Config: cfg, MTTSF: 42}, true
	}
	return nil, false
}
func (b *boundedBlockingBackend) JoinInflight(context.Context, core.Config) (*core.Result, bool, error) {
	return nil, false, nil
}
func (b *boundedBlockingBackend) Stats() engine.Stats { return engine.Stats{} }
func (b *boundedBlockingBackend) WorkerBound() int    { return 1 }

// TestBodySizeCap pins the 413 path: a body over MaxBodyBytes is refused
// without being buffered or reaching validation.
func TestBodySizeCap(t *testing.T) {
	eng := engine.New(engine.Options{})
	ts := httptest.NewServer(New(Options{Backend: eng, MaxBodyBytes: 512}))
	t.Cleanup(ts.Close)

	big, _ := json.Marshal(BatchRequest{Configs: testGridConfigs()}) // ~2 KiB of valid JSON
	if len(big) <= 512 {
		t.Fatalf("test body only %d bytes; enlarge the grid", len(big))
	}
	resp, err := http.Post(ts.URL+"/v1/batch", "application/json", bytes.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: HTTP %d, want 413", resp.StatusCode)
	}
	if st := eng.Stats(); st.Misses != 0 {
		t.Errorf("oversized request reached the engine: %+v", st)
	}
}

// TestBodyPaddedPastCap pins the edge the size cap leaves open, as
// json.Decoder left it: a complete value inside MaxBodyBytes decodes and
// is answered even when whitespace padding runs past the cap, because the
// decoder never needs the bytes after the value.
func TestBodyPaddedPastCap(t *testing.T) {
	body, _ := json.Marshal(EvalRequest{Config: testConfig()})
	ts := httptest.NewServer(New(Options{Backend: engine.New(engine.Options{}), MaxBodyBytes: int64(len(body) + 16)}))
	t.Cleanup(ts.Close)
	padded := append(body, bytes.Repeat([]byte(" "), 4096)...)
	resp, err := http.Post(ts.URL+"/v1/eval", "application/json", bytes.NewReader(padded))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out EvalResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil || resp.StatusCode != http.StatusOK || out.Result == nil {
		t.Fatalf("padded body: HTTP %d, %v, result %v; want 200 with a result", resp.StatusCode, err, out.Result)
	}
}

// TestStatsAndHealth pins the observability endpoints: healthz answers ok,
// and /v1/stats reflects both engine accounting and service counters.
func TestStatsAndHealth(t *testing.T) {
	_, client := newTestServer(t, Options{})
	ctx := context.Background()
	if err := client.Health(ctx); err != nil {
		t.Fatalf("healthz: %v", err)
	}

	cfg := testConfig()
	if _, err := client.Analyze(ctx, cfg); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Analyze(ctx, cfg); err != nil {
		t.Fatal(err)
	}
	st, err := client.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Engine.Evals != 1 || st.Engine.Hits != 1 {
		t.Errorf("engine stats over the wire: %+v, want 1 eval and 1 hit", st.Engine)
	}
	if st.Service.Requests != 2 || st.Service.Points != 2 || st.Service.Rejected != 0 {
		t.Errorf("service stats: %+v, want 2 requests / 2 points / 0 rejected", st.Service)
	}
	if st.Service.MaxInflight <= 0 {
		t.Errorf("service MaxInflight = %d, want > 0", st.Service.MaxInflight)
	}
}

// TestMethodRouting pins that the mux rejects wrong methods (GET on eval,
// POST on stats).
func TestMethodRouting(t *testing.T) {
	eng := engine.New(engine.Options{})
	ts := httptest.NewServer(New(Options{Backend: eng}))
	t.Cleanup(ts.Close)

	resp, err := http.Get(ts.URL + "/v1/eval")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/eval: HTTP %d, want 405", resp.StatusCode)
	}
	resp, err = http.Post(ts.URL+"/v1/stats", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST /v1/stats: HTTP %d, want 405", resp.StatusCode)
	}
}
