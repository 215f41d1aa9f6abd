package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/wire"
)

// ErrOverloaded reports a 429 from the server's admission control; the
// request was never evaluated and can be retried after a backoff.
var ErrOverloaded = errors.New("service: server overloaded")

// ErrCircuitOpen reports a request refused locally by the client's circuit
// breaker: enough consecutive requests failed that the client stops
// hammering a struggling server and fails fast until a cooldown elapses
// and a probe request succeeds.
var ErrCircuitOpen = errors.New("service: circuit breaker open")

// RetryPolicy opts a Client into resilience: transparent retries with
// exponential backoff and full jitter for transient failures (429, 5xx,
// transport errors), honoring the server's Retry-After when it names one,
// plus a consecutive-failure circuit breaker. The zero value (as used by
// NewClient) disables all of it — one attempt, no breaker — preserving the
// legacy fail-fast contract that callers like admission-control tests and
// custom retry loops rely on.
type RetryPolicy struct {
	// MaxAttempts is the total attempts per request, first try included.
	// 0 or 1 means no retries.
	MaxAttempts int
	// BaseDelay seeds the exponential backoff: before attempt k the client
	// sleeps uniform(0, BaseDelay·2^(k-1)] — "full jitter", so a fleet of
	// clients retrying the same overloaded server decorrelates instead of
	// stampeding in phase. Capped at MaxDelay. Defaults: 50ms base, 2s cap.
	BaseDelay time.Duration
	MaxDelay  time.Duration
	// AttemptTimeout bounds each individual attempt (0 = none). The
	// caller's context still bounds the request as a whole, so a hung
	// server costs one attempt, not the whole deadline.
	AttemptTimeout time.Duration
	// BreakerThreshold opens the circuit after this many consecutive
	// failed requests (attempts exhausted, not individual attempts);
	// 0 disables the breaker. While open, requests fail immediately with
	// ErrCircuitOpen until BreakerCooldown (default 1s) elapses, then a
	// single probe request is let through: success closes the circuit,
	// failure re-opens it for another cooldown.
	BreakerThreshold int
	BreakerCooldown  time.Duration
}

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.MaxAttempts < 1 {
		p.MaxAttempts = 1
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = 50 * time.Millisecond
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = 2 * time.Second
	}
	if p.BreakerThreshold > 0 && p.BreakerCooldown <= 0 {
		p.BreakerCooldown = time.Second
	}
	return p
}

// ClientStats counts the client's resilience activity, for benchmark and
// operational reporting.
type ClientStats struct {
	// Retries counts retried attempts (attempt 2 and later).
	Retries uint64 `json:"retries"`
	// BreakerOpens counts closed/half-open -> open transitions.
	BreakerOpens uint64 `json:"breaker_opens"`
	// BreakerFastFails counts requests refused with ErrCircuitOpen.
	BreakerFastFails uint64 `json:"breaker_fast_fails"`
}

// Client evaluates configurations against a running evaluation server
// (cmd/server) over its HTTP/JSON API. Results decode to exactly the
// values an in-process engine returns for the same configurations —
// encoding/json round-trips float64 losslessly — so swapping
// repro.EvalBatch for Client.EvalBatch changes where the solve happens,
// not what comes back. The zero value is not usable; construct with
// NewClient (fail-fast) or NewResilientClient (retries + breaker).
// Methods are safe for concurrent use.
type Client struct {
	base   string
	http   *http.Client
	policy RetryPolicy

	retries          atomic.Uint64
	breakerOpens     atomic.Uint64
	breakerFastFails atomic.Uint64

	// Circuit breaker state; only consulted when policy.BreakerThreshold>0.
	mu          sync.Mutex
	consecutive int
	open        bool
	probing     bool
	openedAt    time.Time
}

// NewClient builds a fail-fast client for the server at baseURL (e.g.
// "http://127.0.0.1:8080"): one attempt per request, no breaker — a 429
// surfaces immediately as ErrOverloaded for the caller's own pacing logic.
// A nil httpClient selects http.DefaultClient; bound request lifetimes
// with contexts rather than client timeouts, since a cold large-N batch
// can legitimately solve for minutes.
func NewClient(baseURL string, httpClient *http.Client) *Client {
	return NewResilientClient(baseURL, httpClient, RetryPolicy{})
}

// ClientOption configures a Client built by NewClientOpts.
type ClientOption func(*clientConfig)

type clientConfig struct {
	http   *http.Client
	policy RetryPolicy
}

// WithHTTPClient selects an explicit http.Client (custom transports,
// proxies, TLS configuration); the default is http.DefaultClient.
func WithHTTPClient(hc *http.Client) ClientOption {
	return func(c *clientConfig) { c.http = hc }
}

// WithRetryPolicy opts the client into resilience: transparent retries
// with jittered backoff and a circuit breaker per the policy. Without it
// the client is fail-fast (one attempt, no breaker).
func WithRetryPolicy(p RetryPolicy) ClientOption {
	return func(c *clientConfig) { c.policy = p }
}

// NewClientOpts builds a client for the server at baseURL from functional
// options — the one constructor behind repro.NewClient; the positional
// NewClient/NewResilientClient forms remain for existing callers.
func NewClientOpts(baseURL string, opts ...ClientOption) *Client {
	var cc clientConfig
	for _, o := range opts {
		o(&cc)
	}
	return NewResilientClient(baseURL, cc.http, cc.policy)
}

// NewResilientClient is NewClient with a retry/breaker policy.
func NewResilientClient(baseURL string, httpClient *http.Client, policy RetryPolicy) *Client {
	if httpClient == nil {
		httpClient = http.DefaultClient
	}
	return &Client{
		base:   strings.TrimRight(baseURL, "/"),
		http:   httpClient,
		policy: policy.withDefaults(),
	}
}

// RetryStats snapshots the client's retry and breaker counters.
func (c *Client) RetryStats() ClientStats {
	return ClientStats{
		Retries:          c.retries.Load(),
		BreakerOpens:     c.breakerOpens.Load(),
		BreakerFastFails: c.breakerFastFails.Load(),
	}
}

// Analyze evaluates one configuration remotely (POST /v1/eval).
func (c *Client) Analyze(ctx context.Context, cfg core.Config) (*core.Result, error) {
	var resp EvalResponse
	if err := c.post(ctx, "/v1/eval", EvalRequest{Config: cfg}, &resp); err != nil {
		return nil, err
	}
	if resp.Result == nil {
		return nil, fmt.Errorf("service: server returned no result")
	}
	return resp.Result, nil
}

// EvalBatch evaluates a batch remotely (POST /v1/batch), preserving order.
// Like the engine's EvalBatch it returns partial results plus one joined
// error when points fail, so it drops into the same call sites.
func (c *Client) EvalBatch(ctx context.Context, cfgs []core.Config) ([]*core.Result, error) {
	if len(cfgs) == 0 {
		return nil, nil
	}
	var resp BatchResponse
	if err := c.post(ctx, "/v1/batch", BatchRequest{Configs: cfgs}, &resp); err != nil {
		return nil, err
	}
	if len(resp.Results) != len(cfgs) {
		return nil, fmt.Errorf("service: server returned %d results for %d configurations", len(resp.Results), len(cfgs))
	}
	if len(resp.Errors) != 0 && len(resp.Errors) != len(cfgs) {
		return nil, fmt.Errorf("service: server returned %d per-point errors for %d configurations", len(resp.Errors), len(cfgs))
	}
	var pointErrs []error
	for i, msg := range resp.Errors {
		if msg != "" {
			pointErrs = append(pointErrs,
				fmt.Errorf("service: batch point %d (TIDS=%v, m=%d): %s", i, cfgs[i].TIDS, cfgs[i].M, msg))
		}
	}
	return resp.Results, errors.Join(pointErrs...)
}

// Stats fetches the server's engine and service accounting (GET /v1/stats).
func (c *Client) Stats(ctx context.Context) (*StatsResponse, error) {
	var resp StatsResponse
	if err := c.get(ctx, "/v1/stats", &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Health probes GET /healthz; nil means the server is up and serving
// (possibly degraded — see HealthStatus for the full report). A draining
// server answers 503 and Health returns an error.
func (c *Client) Health(ctx context.Context) error {
	_, err := c.HealthStatus(ctx)
	return err
}

// HealthStatus fetches the server's full health report. The error is
// non-nil when the server is unreachable or not serving (draining); a
// degraded-but-serving server returns the report with a nil error.
func (c *Client) HealthStatus(ctx context.Context) (*HealthResponse, error) {
	var resp HealthResponse
	if err := c.get(ctx, "/healthz", &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

func (c *Client) post(ctx context.Context, path string, body, out any) error {
	payload, err := json.Marshal(body)
	if err != nil {
		return fmt.Errorf("service: encoding request: %w", err)
	}
	return c.roundTrip(ctx, http.MethodPost, path, payload, out)
}

func (c *Client) get(ctx context.Context, path string, out any) error {
	return c.roundTrip(ctx, http.MethodGet, path, nil, out)
}

// roundTrip is the retry loop: attempts are independent requests rebuilt
// from payload (the body reader cannot be reused), separated by jittered
// exponential backoff or the server's Retry-After, whichever is longer,
// and individually bounded by AttemptTimeout. Permanent failures (4xx
// other than 429, undecodable success bodies) return immediately; only
// transient ones (429, 5xx, transport errors) burn attempts.
func (c *Client) roundTrip(ctx context.Context, method, path string, payload []byte, out any) error {
	if err := c.breakerAllow(); err != nil {
		return fmt.Errorf("%w (%s %s)", err, method, path)
	}
	var lastErr error
	for attempt := 1; ; attempt++ {
		err, transient, retryAfter := c.attempt(ctx, method, path, payload, out)
		if err == nil {
			c.breakerRecord(true)
			return nil
		}
		lastErr = err
		if !transient || attempt >= c.policy.MaxAttempts || ctx.Err() != nil {
			break
		}
		if err := c.sleepBackoff(ctx, attempt, retryAfter); err != nil {
			break
		}
		c.retries.Add(1)
	}
	c.breakerRecord(false)
	return lastErr
}

// attempt runs one HTTP round trip. transient reports whether the failure
// is worth retrying; retryAfter carries the server's Retry-After hint
// (0 = none).
func (c *Client) attempt(ctx context.Context, method, path string, payload []byte, out any) (err error, transient bool, retryAfter time.Duration) {
	actx := ctx
	if c.policy.AttemptTimeout > 0 {
		var cancel context.CancelFunc
		actx, cancel = context.WithTimeout(ctx, c.policy.AttemptTimeout)
		defer cancel()
	}
	var body io.Reader
	if payload != nil {
		body = bytes.NewReader(payload)
	}
	req, err := http.NewRequestWithContext(actx, method, c.base+path, body)
	if err != nil {
		return fmt.Errorf("service: %w", err), false, 0
	}
	if payload != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if tid := obs.TraceID(ctx); tid != "" {
		req.Header.Set(obs.TraceHeader, tid)
	}

	resp, err := c.http.Do(req)
	if err != nil {
		// Transport failure (connection refused/reset, attempt timeout).
		// Retryable unless the caller's own context is what gave up.
		return fmt.Errorf("service: %s %s: %w", method, path, err), ctx.Err() == nil, 0
	}
	defer resp.Body.Close()

	switch {
	case resp.StatusCode == http.StatusOK:
		if err := wire.Decode(resp.Body, out); err != nil {
			return fmt.Errorf("service: decoding %s response: %w", path, err), false, 0
		}
		return nil, false, 0
	case resp.StatusCode == http.StatusTooManyRequests:
		io.Copy(io.Discard, resp.Body)
		return fmt.Errorf("%w (%s %s)", ErrOverloaded, method, path), true, parseRetryAfter(resp)
	default:
		msg := fmt.Sprintf("HTTP %d", resp.StatusCode)
		var e ErrorResponse
		if err := json.NewDecoder(resp.Body).Decode(&e); err == nil && e.Error != "" {
			msg = fmt.Sprintf("%s (HTTP %d)", e.Error, resp.StatusCode)
		}
		return fmt.Errorf("service: %s %s: %s", method, path, msg),
			resp.StatusCode >= 500, parseRetryAfter(resp)
	}
}

// sleepBackoff waits before attempt+1: full-jitter exponential backoff,
// floored by the server's Retry-After hint when one was given.
func (c *Client) sleepBackoff(ctx context.Context, attempt int, retryAfter time.Duration) error {
	ceil := c.policy.BaseDelay << (attempt - 1)
	if ceil > c.policy.MaxDelay || ceil <= 0 {
		ceil = c.policy.MaxDelay
	}
	d := time.Duration(rand.Int63n(int64(ceil)) + 1)
	if retryAfter > d {
		d = retryAfter
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func parseRetryAfter(resp *http.Response) time.Duration {
	s := resp.Header.Get("Retry-After")
	if s == "" {
		return 0
	}
	if secs, err := strconv.Atoi(s); err == nil && secs >= 0 {
		return time.Duration(secs) * time.Second
	}
	return 0
}

// breakerAllow gates a request on the circuit breaker: closed lets it
// through, open fails fast until the cooldown elapses, half-open lets
// exactly one probe through and fails the rest fast.
func (c *Client) breakerAllow() error {
	if c.policy.BreakerThreshold <= 0 {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.open {
		return nil
	}
	if c.probing || time.Since(c.openedAt) < c.policy.BreakerCooldown {
		c.breakerFastFails.Add(1)
		return ErrCircuitOpen
	}
	c.probing = true // this request is the half-open probe
	return nil
}

// breakerRecord feeds a request outcome (after all attempts) back into
// the breaker.
func (c *Client) breakerRecord(success bool) {
	if c.policy.BreakerThreshold <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if success {
		c.consecutive = 0
		c.open = false
		c.probing = false
		return
	}
	c.consecutive++
	wasProbe := c.probing
	c.probing = false
	if wasProbe || (!c.open && c.consecutive >= c.policy.BreakerThreshold) {
		c.open = true
		c.openedAt = time.Now()
		c.breakerOpens.Add(1)
	}
}
