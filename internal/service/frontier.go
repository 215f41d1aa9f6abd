// Streaming endpoints: POST /v1/frontier serves the adaptive Pareto
// frontier as a progressively-refined NDJSON resource, and POST /v1/batch
// upgrades to NDJSON streaming when the client asks for it — both so large
// explorations never buffer a giant JSON body on either side of the wire.
package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/wire"
)

// ndjsonType is the streaming content type: one JSON document per line.
const ndjsonType = "application/x-ndjson"

// FrontierBackend is the optional backend surface behind POST /v1/frontier.
// *engine.Engine implements it; a Backend that does not (a test fake, a
// proxy) makes the endpoint answer 501 instead of panicking.
type FrontierBackend interface {
	// AdaptiveFrontier runs the active-learning frontier loop, calling emit
	// once per frontier revision; see engine.(*Engine).AdaptiveFrontier.
	AdaptiveFrontier(ctx context.Context, cfg core.Config, opts engine.FrontierOptions, emit func(engine.FrontierRevision) error) ([]core.DesignPoint, int, error)
}

// FrontierRequest is the POST /v1/frontier body. Space defaults to
// core.DefaultDesignSpace; EvalBudget is clamped to the server's
// MaxFrontierEvals (0 = as many as the server allows).
type FrontierRequest struct {
	Config core.Config `json:"config"`
	// Space enumerates the candidate grid; nil selects the paper's default
	// design space. Its size is bounded by the server's MaxBatchPoints.
	Space *core.DesignSpace `json:"space,omitempty"`
	// EvalBudget caps fresh engine evaluations for this request.
	EvalBudget int `json:"eval_budget,omitempty"`
	// MinImprovement stops the loop when the best candidate's optimistic
	// hypervolume gain falls below it (see engine.FrontierOptions).
	MinImprovement float64 `json:"min_improvement,omitempty"`
}

// FrontierLine is one NDJSON line of the POST /v1/frontier stream: a
// frontier revision, or — mid-stream, where the HTTP status is already
// written — a terminal error line.
type FrontierLine struct {
	engine.FrontierRevision
	// Error terminates the stream when set: the loop failed after the line
	// prefix was already committed, so the failure rides in-band.
	Error string `json:"error,omitempty"`
	// TraceID carries the request's trace id on terminal lines (Done or
	// Error), tying the stream's outcome to the server-side logs and any
	// cluster peer hops the evaluations took.
	TraceID string `json:"trace_id,omitempty"`
}

// BatchStreamLine is one NDJSON line of a streamed POST /v1/batch response
// (see wire.BatchStreamLine).
type BatchStreamLine = wire.BatchStreamLine

// handleFrontier serves POST /v1/frontier: the adaptive frontier loop with
// one NDJSON line per frontier revision. Pre-flight failures (bad request,
// overload, unsupported backend) are ordinary JSON error responses;
// mid-stream failures become a terminal Error line. Every fresh evaluation
// acquires the server-wide solve semaphore through the loop's Gate, so a
// frontier request queues for solver capacity point-by-point exactly like
// batch points do, and r.Context() cancellation stops the loop at the next
// point boundary.
func (s *Server) handleFrontier(w http.ResponseWriter, r *http.Request) {
	if !s.admit(w) {
		return
	}
	defer s.release()
	fb, ok := s.backend.(FrontierBackend)
	if !ok {
		writeJSON(w, http.StatusNotImplemented,
			ErrorResponse{Error: "service: backend does not support adaptive frontier exploration"})
		return
	}
	var req FrontierRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	if err := req.Config.Validate(); err != nil {
		writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: err.Error()})
		return
	}
	space := core.DefaultDesignSpace()
	if req.Space != nil {
		space = *req.Space
	}
	if n := space.Size(); n == 0 {
		writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: "service: frontier design space is empty"})
		return
	} else if n > s.maxBatch {
		writeJSON(w, http.StatusBadRequest,
			ErrorResponse{Error: fmt.Sprintf("service: design space of %d points exceeds the %d-point limit", n, s.maxBatch)})
		return
	}
	budget := req.EvalBudget
	if budget <= 0 || budget > s.maxFrontier {
		budget = s.maxFrontier
	}

	opts := engine.FrontierOptions{
		Space:          space,
		EvalBudget:     budget,
		MinImprovement: req.MinImprovement,
		// Each fresh evaluation holds one solve slot, so an adaptive loop
		// shares solver capacity fairly with concurrent batch requests and
		// stops waiting the moment its client hangs up.
		Gate: func(ctx context.Context) (func(), error) {
			select {
			case s.evalSem <- struct{}{}:
				return func() { <-s.evalSem }, nil
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		},
	}
	if s.clusterNode != nil {
		// Cluster-wired servers route each fresh frontier evaluation across
		// the ring like a batch point (owner first, failover, degraded local
		// solve); evalPoint self-gates on the solve semaphore for the local
		// leg, so Gate goes unused.
		opts.Eval = s.evalPoint
	}

	w.Header().Set("Content-Type", ndjsonType)
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)
	fl, _ := w.(http.Flusher)
	emit := func(rev engine.FrontierRevision) error {
		line := FrontierLine{FrontierRevision: rev}
		if rev.Done {
			line.TraceID = obs.TraceID(r.Context())
		}
		if err := enc.Encode(line); err != nil {
			return err
		}
		if fl != nil {
			fl.Flush()
		}
		return nil
	}
	_, evals, err := fb.AdaptiveFrontier(r.Context(), req.Config, opts, emit)
	s.points.Add(uint64(evals))
	if err != nil && r.Context().Err() == nil {
		// The status line is long gone; report the failure in-band. (If the
		// client hung up there is no one left to tell.)
		_ = enc.Encode(FrontierLine{Error: err.Error(), TraceID: obs.TraceID(r.Context())})
	}
}

// acceptsNDJSON reports whether the request opted into streamed batch
// responses. A literal match keeps the default (buffered JSON) for every
// client that does not explicitly ask, including Accept: */*.
func acceptsNDJSON(r *http.Request) bool {
	for _, v := range r.Header.Values("Accept") {
		if strings.Contains(v, ndjsonType) {
			return true
		}
	}
	return false
}

// streamBatch is handleBatch's NDJSON mode: the same bounded fan-out as the
// buffered path, but each point's line is encoded and flushed as soon as it
// (and every lower index) resolves, so a million-point sweep streams at
// solve speed instead of buffering the whole response. Lines carry exactly
// the bytes the buffered Results[i]/Errors[i] entries would, in index order.
func (s *Server) streamBatch(w http.ResponseWriter, r *http.Request, cfgs []core.Config) {
	n := len(cfgs)
	results := make([]*core.Result, n)
	errs := make([]error, n)
	ready := make([]chan struct{}, n)
	for i := range ready {
		ready[i] = make(chan struct{})
	}
	ctx := r.Context()
	evalsDone := make(chan struct{})
	go func() {
		defer close(evalsDone)
		core.ForEachIndexed(n, cap(s.evalSem), func(i int) {
			results[i], errs[i] = s.evalPoint(ctx, cfgs[i])
			close(ready[i])
		})
	}()
	// The admission slot stays held until every point has stopped running,
	// even when the writer bails out early on a dead client.
	defer func() { <-evalsDone }()

	w.Header().Set("Content-Type", ndjsonType)
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)
	fl, _ := w.(http.Flusher)
	for i := 0; i < n; i++ {
		select {
		case <-ready[i]:
		case <-ctx.Done():
			return
		}
		line := BatchStreamLine{Index: i, Result: results[i]}
		if errs[i] != nil {
			line.Error = errs[i].Error()
		}
		if err := enc.Encode(line); err != nil {
			return
		}
		if fl != nil {
			fl.Flush()
		}
	}
	// Terminal done line: the stream completed (as opposed to a connection
	// torn mid-batch, which clients detect as truncation) and the request's
	// trace id rides out with it.
	_ = enc.Encode(BatchStreamLine{Index: n, Done: true, TraceID: obs.TraceID(ctx)})
	if fl != nil {
		fl.Flush()
	}
}

// --- Client side ---

// Frontier streams the adaptive Pareto frontier from the server (POST
// /v1/frontier). onRev, when non-nil, observes every frontier revision as
// its line arrives; returning an error aborts the stream (the server
// cancels its loop at the next point boundary). The returned frontier and
// evaluation count come from the stream's terminal revision, mirroring
// engine.AdaptiveFrontier's signature.
//
// Frontier runs a single attempt regardless of the client's RetryPolicy:
// replaying a half-consumed revision stream after a mid-flight failure
// would re-deliver revisions the caller already acted on. The circuit
// breaker still observes the outcome.
func (c *Client) Frontier(ctx context.Context, req FrontierRequest, onRev func(engine.FrontierRevision) error) ([]core.DesignPoint, int, error) {
	if err := c.breakerAllow(); err != nil {
		return nil, 0, fmt.Errorf("%w (POST /v1/frontier)", err)
	}
	frontier, evals, err := c.frontierOnce(ctx, req, onRev)
	c.breakerRecord(err == nil)
	return frontier, evals, err
}

func (c *Client) frontierOnce(ctx context.Context, req FrontierRequest, onRev func(engine.FrontierRevision) error) ([]core.DesignPoint, int, error) {
	payload, err := json.Marshal(req)
	if err != nil {
		return nil, 0, fmt.Errorf("service: encoding request: %w", err)
	}
	resp, err := c.startStream(ctx, "/v1/frontier", payload, "")
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()

	var last *FrontierLine
	sc := streamScanner(resp)
	for sc.Scan() {
		var line FrontierLine
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			return nil, 0, fmt.Errorf("service: undecodable frontier line: %w", err)
		}
		if line.Error != "" {
			return nil, line.Evals, fmt.Errorf("service: frontier stream failed: %s", line.Error)
		}
		last = &line
		if onRev != nil {
			if err := onRev(line.FrontierRevision); err != nil {
				return nil, line.Evals, err
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, 0, fmt.Errorf("service: reading frontier stream: %w", err)
	}
	if last == nil || !last.Done {
		return nil, 0, fmt.Errorf("service: frontier stream truncated before its terminal revision")
	}
	return last.Frontier, last.Evals, nil
}

// EvalBatchStream evaluates a batch remotely with a streamed NDJSON
// response (POST /v1/batch with Accept: application/x-ndjson): onLine
// observes each point's result in index order as it resolves, instead of
// waiting for the whole batch to buffer. Returning an error from onLine
// aborts the stream and cancels the server's remaining points at the next
// point boundary. Per-point failures arrive as lines with Error set, not
// as a method error. Like Frontier, this runs a single attempt.
func (c *Client) EvalBatchStream(ctx context.Context, cfgs []core.Config, onLine func(BatchStreamLine) error) error {
	if len(cfgs) == 0 {
		return nil
	}
	if err := c.breakerAllow(); err != nil {
		return fmt.Errorf("%w (POST /v1/batch)", err)
	}
	err := c.evalBatchStreamOnce(ctx, cfgs, onLine)
	c.breakerRecord(err == nil)
	return err
}

func (c *Client) evalBatchStreamOnce(ctx context.Context, cfgs []core.Config, onLine func(BatchStreamLine) error) error {
	payload, err := json.Marshal(BatchRequest{Configs: cfgs})
	if err != nil {
		return fmt.Errorf("service: encoding request: %w", err)
	}
	resp, err := c.startStream(ctx, "/v1/batch", payload, ndjsonType)
	if err != nil {
		return err
	}
	defer resp.Body.Close()

	seen := 0
	sc := streamScanner(resp)
	for sc.Scan() {
		var line BatchStreamLine
		if err := wire.Unmarshal(sc.Bytes(), &line); err != nil {
			return fmt.Errorf("service: undecodable batch line: %w", err)
		}
		if line.Done {
			// Terminal marker: every point line arrived; nothing follows.
			break
		}
		if line.Index != seen {
			return fmt.Errorf("service: batch stream skipped from line %d to %d", seen, line.Index)
		}
		seen++
		if onLine != nil {
			if err := onLine(line); err != nil {
				return err
			}
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("service: reading batch stream: %w", err)
	}
	if seen != len(cfgs) {
		return fmt.Errorf("service: batch stream truncated after %d of %d lines", seen, len(cfgs))
	}
	return nil
}

// startStream opens a streaming POST and verifies the response committed to
// NDJSON; a non-200 is decoded as the usual JSON error envelope.
func (c *Client) startStream(ctx context.Context, path string, payload []byte, accept string) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+path, bytes.NewReader(payload))
	if err != nil {
		return nil, fmt.Errorf("service: %w", err)
	}
	req.Header.Set("Content-Type", "application/json")
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	if tid := obs.TraceID(ctx); tid != "" {
		req.Header.Set(obs.TraceHeader, tid)
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, fmt.Errorf("service: POST %s: %w", path, err)
	}
	if resp.StatusCode != http.StatusOK {
		defer resp.Body.Close()
		if resp.StatusCode == http.StatusTooManyRequests {
			io.Copy(io.Discard, resp.Body)
			return nil, fmt.Errorf("%w (POST %s)", ErrOverloaded, path)
		}
		msg := fmt.Sprintf("HTTP %d", resp.StatusCode)
		var e ErrorResponse
		if err := json.NewDecoder(resp.Body).Decode(&e); err == nil && e.Error != "" {
			msg = fmt.Sprintf("%s (HTTP %d)", e.Error, resp.StatusCode)
		}
		return nil, fmt.Errorf("service: POST %s: %s", path, msg)
	}
	return resp, nil
}

// streamScanner builds the line scanner for an NDJSON response body. The
// buffer accommodates the frontier stream's terminal line, which carries
// the entire frontier in one JSON document.
func streamScanner(resp *http.Response) *bufio.Scanner {
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 64<<20)
	return sc
}
