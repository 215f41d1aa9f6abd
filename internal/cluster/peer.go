// Peer RPC client and wire types. The HTTP handlers for these paths live
// in internal/service (which imports this package for the types); the
// client here is what Node's router, replicator, heartbeats, and re-sync
// speak. Every call passes through the peer fault-injection seam
// (peer.down, peer.partition, peer.latency, peer.reset), so the chaos
// suite can make any peer unreachable, lagging, or flaky without touching
// a real network.
package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/faultinject"
	"repro/internal/obs"
	"repro/internal/wire"
)

// Peer RPC paths (registered by internal/service when a cluster is wired).
const (
	PeerSolvePath   = "/v1/peer/solve"
	PeerFillPath    = "/v1/peer/fill"
	PeerEntriesPath = "/v1/peer/entries"
	PeerPingPath    = "/v1/peer/ping"
)

// The peer bodies that carry configurations and results live in
// internal/wire, which decodes them. A peer solve asks the owner to
// evaluate one configuration strictly locally (cache, in-flight join, or
// its own solver — never re-routed, so a routing loop is impossible by
// construction), with the body and answer of POST /v1/eval.
type (
	SolveRequest    = wire.EvalRequest
	SolveResponse   = wire.EvalResponse
	FillRequest     = wire.FillRequest
	FillResponse    = wire.FillResponse
	EntriesResponse = wire.EntriesResponse
)

// PingResponse answers a heartbeat probe.
type PingResponse struct {
	Node string `json:"node"`
}

// ErrPeerUnavailable classifies a peer call failure as transient — the
// peer is down, partitioned, overloaded, or mid-crash — meaning the caller
// should fail over to the next replica. Errors NOT wrapping this (a 4xx
// model error from a solve) are properties of the request itself and
// repeat identically on every replica, so failover must not retry them.
var ErrPeerUnavailable = errors.New("cluster: peer unavailable")

// errorBody is the service's JSON error envelope, decoded best-effort.
type errorBody struct {
	Error string `json:"error"`
}

// PeerClient issues the peer RPCs. Methods are safe for concurrent use.
type PeerClient struct {
	http *http.Client
}

// NewPeerClient builds a peer client; nil selects http.DefaultClient.
func NewPeerClient(hc *http.Client) *PeerClient {
	if hc == nil {
		hc = http.DefaultClient
	}
	return &PeerClient{http: hc}
}

// injectSendFault fires the pre-send fault sites: a downed or partitioned
// peer is unreachable before any bytes leave, and a lagging peer delays
// the call.
func injectSendFault() error {
	if faultinject.Fire(faultinject.PeerDown) {
		return fmt.Errorf("%w: injected peer.down", ErrPeerUnavailable)
	}
	if faultinject.Fire(faultinject.PeerPartition) {
		return fmt.Errorf("%w: injected peer.partition", ErrPeerUnavailable)
	}
	faultinject.SleepFor(faultinject.PeerLatency, faultinject.PeerLatencyMS, 20)
	return nil
}

// do runs one peer round trip: inject pre-send faults, send, classify the
// response, and decode a 200 into out. A post-receive peer.reset discards
// the response after the remote side already did (and cached) the work.
func (pc *PeerClient) do(ctx context.Context, method, base, path string, body, out any) error {
	if err := injectSendFault(); err != nil {
		return err
	}
	var rd io.Reader
	if body != nil {
		payload, err := json.Marshal(body)
		if err != nil {
			return fmt.Errorf("cluster: encoding %s request: %w", path, err)
		}
		rd = bytes.NewReader(payload)
	}
	req, err := http.NewRequestWithContext(ctx, method, base+path, rd)
	if err != nil {
		return fmt.Errorf("cluster: %w", err)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	// The coordinator's trace id rides every peer hop, so one id follows a
	// request coordinator -> owner -> replica through each node's logs.
	if tid := obs.TraceID(ctx); tid != "" {
		req.Header.Set(obs.TraceHeader, tid)
	}
	resp, err := pc.http.Do(req)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrPeerUnavailable, err)
	}
	defer resp.Body.Close()
	if faultinject.Fire(faultinject.PeerReset) {
		io.Copy(io.Discard, resp.Body)
		return fmt.Errorf("%w: injected peer.reset (response dropped)", ErrPeerUnavailable)
	}
	switch {
	case resp.StatusCode == http.StatusOK:
		if out == nil {
			io.Copy(io.Discard, resp.Body)
			return nil
		}
		if err := wire.Decode(resp.Body, out); err != nil {
			return fmt.Errorf("%w: undecodable %s response: %v", ErrPeerUnavailable, path, err)
		}
		return nil
	case resp.StatusCode >= 500 || resp.StatusCode == http.StatusTooManyRequests:
		// The peer is alive but cannot serve this right now (draining,
		// overloaded, internal failure): transient, fail over.
		var e errorBody
		_ = json.NewDecoder(resp.Body).Decode(&e)
		return fmt.Errorf("%w: %s HTTP %d: %s", ErrPeerUnavailable, path, resp.StatusCode, e.Error)
	default:
		// 4xx: the request itself is bad (model error, oversized body) —
		// permanent, identical on every replica.
		var e errorBody
		_ = json.NewDecoder(resp.Body).Decode(&e)
		if e.Error == "" {
			e.Error = fmt.Sprintf("HTTP %d", resp.StatusCode)
		}
		return fmt.Errorf("cluster: peer %s: %s", path, e.Error)
	}
}

// Solve asks the peer at base to evaluate cfg locally.
func (pc *PeerClient) Solve(ctx context.Context, base string, cfg core.Config) (*core.Result, error) {
	var resp SolveResponse
	if err := pc.do(ctx, http.MethodPost, base, PeerSolvePath, SolveRequest{Config: cfg}, &resp); err != nil {
		return nil, err
	}
	if resp.Result == nil {
		return nil, fmt.Errorf("%w: peer returned no result", ErrPeerUnavailable)
	}
	return resp.Result, nil
}

// Fill replicates entries into the peer's cache, returning how many it
// admitted.
func (pc *PeerClient) Fill(ctx context.Context, base, from string, entries []engine.SnapshotEntry) (int, error) {
	var resp FillResponse
	if err := pc.do(ctx, http.MethodPost, base, PeerFillPath, FillRequest{From: from, Entries: entries}, &resp); err != nil {
		return 0, err
	}
	return resp.Admitted, nil
}

// Entries fetches the peer's export of forNode's ring arc.
func (pc *PeerClient) Entries(ctx context.Context, base, forNode string) ([]engine.SnapshotEntry, error) {
	var resp EntriesResponse
	path := PeerEntriesPath + "?node=" + url.QueryEscape(forNode)
	if err := pc.do(ctx, http.MethodGet, base, path, nil, &resp); err != nil {
		return nil, err
	}
	return resp.Entries, nil
}

// Ping probes the peer's liveness (heartbeat). A draining or dead peer
// reports ErrPeerUnavailable.
func (pc *PeerClient) Ping(ctx context.Context, base string) error {
	var resp PingResponse
	return pc.do(ctx, http.MethodGet, base, PeerPingPath, nil, &resp)
}

// pingTimeout bounds one heartbeat probe so a hung peer cannot stall the
// heartbeat loop past its own interval.
const pingTimeout = 2 * time.Second
