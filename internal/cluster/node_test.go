package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
)

// fakePeer is a minimal in-process peer speaking the wire protocol, with
// switchable failure modes, so Node's router and failure detector can be
// unit-tested without a second full service stack.
type fakePeer struct {
	t   *testing.T
	eng *engine.Engine
	srv *httptest.Server

	down      atomic.Bool // every endpoint answers 500
	permanent atomic.Bool // peer/solve answers 422
	mu        sync.Mutex  // guards fills
	fills     []FillRequest

	solves atomic.Int64
	pings  atomic.Int64
}

func newFakePeer(t *testing.T) *fakePeer {
	t.Helper()
	p := &fakePeer{t: t, eng: engine.New(engine.Options{})}
	mux := http.NewServeMux()
	mux.HandleFunc("POST "+PeerSolvePath, func(w http.ResponseWriter, r *http.Request) {
		if p.down.Load() {
			http.Error(w, `{"error":"down"}`, http.StatusInternalServerError)
			return
		}
		if p.permanent.Load() {
			http.Error(w, `{"error":"unevaluable configuration"}`, http.StatusUnprocessableEntity)
			return
		}
		p.solves.Add(1)
		var req SolveRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		res, err := p.eng.EvalContext(r.Context(), req.Config)
		if err != nil {
			http.Error(w, fmt.Sprintf(`{"error":%q}`, err.Error()), http.StatusUnprocessableEntity)
			return
		}
		json.NewEncoder(w).Encode(SolveResponse{Result: res})
	})
	mux.HandleFunc("POST "+PeerFillPath, func(w http.ResponseWriter, r *http.Request) {
		if p.down.Load() {
			http.Error(w, `{"error":"down"}`, http.StatusInternalServerError)
			return
		}
		var req FillRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		p.mu.Lock()
		p.fills = append(p.fills, req)
		p.mu.Unlock()
		admitted := p.eng.RestoreEntries(req.Entries)
		json.NewEncoder(w).Encode(FillResponse{Admitted: admitted})
	})
	mux.HandleFunc("GET "+PeerEntriesPath, func(w http.ResponseWriter, r *http.Request) {
		if p.down.Load() {
			http.Error(w, `{"error":"down"}`, http.StatusInternalServerError)
			return
		}
		json.NewEncoder(w).Encode(EntriesResponse{Entries: p.eng.SnapshotEntries()})
	})
	mux.HandleFunc("GET "+PeerPingPath, func(w http.ResponseWriter, r *http.Request) {
		if p.down.Load() {
			http.Error(w, `{"error":"down"}`, http.StatusInternalServerError)
			return
		}
		p.pings.Add(1)
		json.NewEncoder(w).Encode(PingResponse{Node: "peer"})
	})
	p.srv = httptest.NewServer(mux)
	t.Cleanup(p.srv.Close)
	return p
}

func (p *fakePeer) fillCount() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.fills)
}

func clusterTestConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.N = 12
	return cfg
}

// newTestNode builds a 2-member node ("self" plus the fake peer) that is
// NOT started — tests drive replication and heartbeats explicitly.
func newTestNode(t *testing.T, peer *fakePeer, replication int) *Node {
	t.Helper()
	n, err := NewNode(Options{
		SelfID: "self",
		Members: []Member{
			{ID: "self", URL: "http://invalid.invalid"},
			{ID: "peer", URL: peer.srv.URL},
		},
		Replication: replication,
		Engine:      engine.New(engine.Options{}),
		Logf:        t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// configOwnedBy scans TIDS values until it finds a config whose ring owner
// is the wanted member, so ownership-dependent tests are deterministic.
func configOwnedBy(t *testing.T, n *Node, owner string) core.Config {
	t.Helper()
	cfg := clusterTestConfig()
	for tids := 10.0; tids < 5000; tids++ {
		cfg.TIDS = tids
		key := engine.Fingerprint(cfg)
		if n.ring.ReplicasFor(key, 1)[0].ID == owner {
			return cfg
		}
	}
	t.Fatal("no config found owned by " + owner)
	return cfg
}

// A local solve on a replica member must replicate the entry to the other
// replicas, and the replicated bytes must round-trip into their caches.
func TestRouteReplicatesLocalSolves(t *testing.T) {
	peer := newFakePeer(t)
	n := newTestNode(t, peer, 2)
	n.Start()
	defer n.Stop()

	cfg := configOwnedBy(t, n, "self")
	res, err := n.Route(context.Background(), cfg, func(ctx context.Context) (*core.Result, error) {
		return n.eng.EvalContext(ctx, cfg)
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := n.FlushReplication(ctx); err != nil {
		t.Fatal(err)
	}
	if peer.fillCount() == 0 {
		t.Fatal("local solve was not replicated to the peer")
	}
	// The peer's cache must now hold the identical result.
	got, ok := peer.eng.Cached(cfg)
	if !ok {
		t.Fatal("replicated entry missing from peer cache")
	}
	wantJSON, _ := json.Marshal(res)
	gotJSON, _ := json.Marshal(got)
	if string(wantJSON) != string(gotJSON) {
		t.Errorf("replicated result differs:\n peer %s\n self %s", gotJSON, wantJSON)
	}
	if st := n.Status(); st.RoutedLocal != 1 || st.Replicated == 0 {
		t.Errorf("counters: %+v", st)
	}
}

// A point owned by the peer routes remotely; the answer is admitted into
// the local cache so a repeat is warm without another hop.
func TestRouteRemoteOwnerAndReadThrough(t *testing.T) {
	peer := newFakePeer(t)
	n := newTestNode(t, peer, 1)

	cfg := configOwnedBy(t, n, "peer")
	res, err := n.Route(context.Background(), cfg, func(ctx context.Context) (*core.Result, error) {
		t.Fatal("solveLocal called for a remotely-owned point")
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if peer.solves.Load() != 1 {
		t.Fatalf("peer solves = %d, want 1", peer.solves.Load())
	}
	if cached, ok := n.eng.Cached(cfg); !ok {
		t.Error("remote result not admitted into the local cache")
	} else if cached.MTTSF != res.MTTSF {
		t.Error("cached copy differs from the routed result")
	}
	if st := n.Status(); st.RoutedRemote != 1 {
		t.Errorf("RoutedRemote = %d, want 1", st.RoutedRemote)
	}
}

// When the remote owner fails transiently the request degrades to a local
// solve (replication=1: no other replica to hedge to) and the peer's
// failure is recorded.
func TestRouteDegradesWhenOwnerDown(t *testing.T) {
	peer := newFakePeer(t)
	n := newTestNode(t, peer, 1)
	peer.down.Store(true)

	cfg := configOwnedBy(t, n, "peer")
	solved := false
	_, err := n.Route(context.Background(), cfg, func(ctx context.Context) (*core.Result, error) {
		solved = true
		return n.eng.EvalContext(ctx, cfg)
	})
	if err != nil {
		t.Fatal(err)
	}
	if !solved {
		t.Fatal("router did not degrade to the local solve")
	}
	st := n.Status()
	if st.DegradedSolves != 1 {
		t.Errorf("DegradedSolves = %d, want 1", st.DegradedSolves)
	}
	if st.Peers[0].ConsecutiveFails == 0 {
		t.Error("owner failure not recorded against its liveness")
	}
}

// A permanent (4xx) remote failure must NOT fail over: the configuration
// itself is bad and every replica would answer identically.
func TestRoutePermanentErrorDoesNotHedge(t *testing.T) {
	peer := newFakePeer(t)
	n := newTestNode(t, peer, 1)
	peer.permanent.Store(true)

	cfg := configOwnedBy(t, n, "peer")
	_, err := n.Route(context.Background(), cfg, func(ctx context.Context) (*core.Result, error) {
		t.Fatal("permanent remote error must not degrade to a local solve")
		return nil, nil
	})
	if err == nil {
		t.Fatal("expected the peer's permanent error")
	}
	if st := n.Status(); st.DegradedSolves != 0 {
		t.Errorf("DegradedSolves = %d, want 0", st.DegradedSolves)
	}
}

// Dead peers are skipped outright: after enough consecutive failures the
// router stops paying a connection attempt per point.
func TestRouteSkipsDeadPeer(t *testing.T) {
	peer := newFakePeer(t)
	n := newTestNode(t, peer, 1)
	peer.down.Store(true)

	cfg := configOwnedBy(t, n, "peer")
	solve := func(ctx context.Context) (*core.Result, error) { return n.eng.EvalContext(ctx, cfg) }
	for i := 0; i < n.deadAfter; i++ {
		n.recordFailure("peer")
	}
	if n.peerStateOf("peer") != PeerDead {
		t.Fatalf("peer state = %s, want dead", n.peerStateOf("peer"))
	}
	if _, err := n.Route(context.Background(), cfg, solve); err != nil {
		t.Fatal(err)
	}
	if peer.solves.Load() != 0 {
		t.Error("router contacted a dead peer")
	}
	if n.Healthy() {
		t.Error("Healthy() with a dead peer")
	}
}

// AdmitFill must refuse non-finite entries — a poisoned peer cannot seed
// a healthy cache — while admitting valid ones.
func TestAdmitFillValidates(t *testing.T) {
	peer := newFakePeer(t)
	n := newTestNode(t, peer, 2)

	cfg := clusterTestConfig()
	res, err := peer.eng.Eval(cfg)
	if err != nil {
		t.Fatal(err)
	}
	poisoned := *res
	poisoned.MTTSF = math.NaN()
	admitted := n.AdmitFill("peer", []engine.SnapshotEntry{
		{Key: "poisoned-key", Result: poisoned},
		{Key: engine.Fingerprint(cfg), Result: *res},
	})
	if admitted != 1 {
		t.Fatalf("admitted %d entries, want 1 (the finite one)", admitted)
	}
	if _, ok := n.eng.Cached(cfg); !ok {
		t.Error("finite entry not admitted")
	}
	if got := n.eng.SnapshotEntriesMatching(func(k string) bool { return k == "poisoned-key" }); len(got) != 0 {
		t.Error("non-finite entry entered the cache")
	}
}

// The heartbeat ladder: alive → suspect → dead as a peer stops answering,
// then a successful probe flips it straight back and pushes its arc.
func TestHeartbeatLadderAndRejoinPush(t *testing.T) {
	peer := newFakePeer(t)
	n, err := NewNode(Options{
		SelfID: "self",
		Members: []Member{
			{ID: "self", URL: "http://invalid.invalid"},
			{ID: "peer", URL: peer.srv.URL},
		},
		Replication:       2,
		HeartbeatInterval: 10 * time.Millisecond,
		SuspectAfter:      2,
		DeadAfter:         4,
		Engine:            engine.New(engine.Options{}),
		Logf:              t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Seed the local cache so the rejoin push has an arc to send.
	cfg := clusterTestConfig()
	if _, err := n.eng.Eval(cfg); err != nil {
		t.Fatal(err)
	}

	n.Start()
	defer n.Stop()
	peer.down.Store(true)
	deadline := time.Now().Add(10 * time.Second)
	for n.peerStateOf("peer") != PeerDead {
		if time.Now().After(deadline) {
			t.Fatal("peer never declared dead")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if n.Healthy() {
		t.Error("Healthy() while a peer is dead")
	}

	peer.down.Store(false)
	for n.peerStateOf("peer") != PeerAlive {
		if time.Now().After(deadline) {
			t.Fatal("peer never rejoined")
		}
		time.Sleep(5 * time.Millisecond)
	}
	// The dead→alive transition pushes the rejoined peer's arc.
	for peer.fillCount() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("rejoin did not push the peer's arc")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if _, ok := peer.eng.Cached(cfg); !ok {
		t.Error("pushed arc entry missing from the rejoined peer's cache")
	}
	if !n.Healthy() {
		t.Error("Healthy() false after rejoin")
	}
}

// Resync pulls this node's arc from live peers (the restart path).
func TestResyncPullsArcFromPeers(t *testing.T) {
	peer := newFakePeer(t)
	n := newTestNode(t, peer, 2)

	cfg := clusterTestConfig()
	want, err := peer.eng.Eval(cfg)
	if err != nil {
		t.Fatal(err)
	}
	n.Resync(context.Background())
	got, ok := n.eng.Cached(cfg)
	if !ok {
		t.Fatal("re-sync did not admit the peer's entry")
	}
	if got.MTTSF != want.MTTSF {
		t.Error("re-synced entry differs from the peer's")
	}
	if st := n.Status(); st.Resyncs == 0 || st.ResyncEntries == 0 {
		t.Errorf("re-sync counters not advanced: %+v", st)
	}
}
