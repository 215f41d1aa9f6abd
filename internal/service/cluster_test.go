package service

// End-to-end evaluation-cluster tests: three full nodes (engine + cluster
// node + HTTP service) wired over httptest, a coordinator sweeping through
// them, and the chaos matrix killing and partitioning peers mid-sweep. The
// acceptance bar is the same as single-node chaos: sweeps complete, results
// match a fault-free single-node reference to 1e-9 relative, nothing
// non-finite replicates into any peer's cache, and a killed node rejoining
// re-syncs its arc with zero client-visible errors.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/faultinject"
)

// swapHandler lets the cluster harness stand listeners up before the
// services exist (the topology needs URLs first) and later "kill" a node
// by swapping its service out for a 502 — the node's process is gone as
// far as peers can tell, while the URL stays bindable for the rejoin.
type swapHandler struct {
	h atomic.Pointer[http.Handler]
}

func (s *swapHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if h := s.h.Load(); h != nil {
		(*h).ServeHTTP(w, r)
		return
	}
	http.Error(w, `{"error":"node down"}`, http.StatusBadGateway)
}

func (s *swapHandler) set(h http.Handler) { s.h.Store(&h) }
func (s *swapHandler) kill()              { s.h.Store(nil) }

// clusterNode is one harness member.
type clusterNode struct {
	id      string
	eng     *engine.Engine
	node    *cluster.Node
	svc     *Server
	swap    *swapHandler
	baseURL string
}

// newTestCluster boots n fully-wired nodes with fast heartbeats and
// replication R. Nodes are Started; cleanup stops them.
func newTestCluster(t *testing.T, n, replication int) []*clusterNode {
	t.Helper()
	nodes := make([]*clusterNode, n)
	members := make([]cluster.Member, n)
	for i := range nodes {
		sw := &swapHandler{}
		ts := httptest.NewServer(sw)
		t.Cleanup(ts.Close)
		nodes[i] = &clusterNode{id: fmt.Sprintf("node-%d", i), swap: sw, baseURL: ts.URL}
		members[i] = cluster.Member{ID: nodes[i].id, URL: ts.URL}
	}
	for i, cn := range nodes {
		cn.eng = engine.New(engine.Options{})
		node, err := cluster.NewNode(cluster.Options{
			SelfID:            cn.id,
			Members:           members,
			Replication:       replication,
			HeartbeatInterval: 20 * time.Millisecond,
			SuspectAfter:      2,
			DeadAfter:         4,
			Engine:            cn.eng,
			Logf: func(format string, args ...any) {
				t.Logf("[%s] "+format, append([]any{nodes[i].id}, args...)...)
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		cn.node = node
		cn.svc = New(Options{Backend: cn.eng, Cluster: node})
		cn.swap.set(cn.svc)
		node.Start()
		t.Cleanup(node.Stop)
	}
	return nodes
}

// flushCluster drains every node's replication queue.
func flushCluster(t *testing.T, nodes []*clusterNode) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for _, cn := range nodes {
		if err := cn.node.FlushReplication(ctx); err != nil {
			t.Fatalf("%s: flushing replication: %v", cn.id, err)
		}
	}
}

// assertAllCachesFinite walks every node's exported entries through the
// engine's validation gate: nothing non-finite may ever replicate.
func assertAllCachesFinite(t *testing.T, nodes []*clusterNode) {
	t.Helper()
	for _, cn := range nodes {
		for _, e := range cn.eng.SnapshotEntries() {
			res := e.Result
			if err := engine.ValidateResult(&res); err != nil {
				t.Errorf("%s: non-finite entry %s in cache: %v", cn.id, e.Key, err)
			}
		}
	}
}

// singleNodeReference evaluates cfgs fault-free on a fresh engine.
func singleNodeReference(t *testing.T, cfgs []core.Config) []*core.Result {
	t.Helper()
	faultinject.Disable()
	ref := engine.New(engine.Options{})
	want, err := ref.EvalBatch(cfgs)
	if err != nil {
		t.Fatal(err)
	}
	return want
}

// A fault-free cluster sweep through one coordinator must be byte-identical
// to a single-node run, and every point must end up on R replicas.
func TestClusterSweepMatchesSingleNode(t *testing.T) {
	nodes := newTestCluster(t, 3, 2)
	cfgs := testGridConfigs()
	want := singleNodeReference(t, cfgs)

	client := NewClient(nodes[0].baseURL, nil)
	got, err := client.EvalBatch(context.Background(), cfgs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		wantJSON, _ := json.Marshal(want[i])
		gotJSON, _ := json.Marshal(got[i])
		// 1e-9 relative: whether a point is patched onto a pooled session
		// or fully prepared depends on evaluation order and moves the last
		// couple of ULPs; the ring only changes which node solves a point,
		// never the model.
		if !bytes.Equal(wantJSON, gotJSON) && !approxJSON(gotJSON, wantJSON, 1e-9) {
			t.Errorf("point %d: cluster result diverged beyond 1e-9 from single-node:\n cluster %s\n single  %s", i, gotJSON, wantJSON)
		}
	}

	flushCluster(t, nodes)
	for i, cfg := range cfgs {
		copies := 0
		for _, cn := range nodes {
			if _, ok := cn.eng.Cached(cfg); ok {
				copies++
			}
		}
		if copies < 2 {
			t.Errorf("point %d cached on %d nodes, want >= replication (2)", i, copies)
		}
	}
	st := nodes[0].node.Status()
	if st.RoutedLocal+st.RoutedRemote != uint64(len(cfgs)) {
		t.Errorf("coordinator routed %d local + %d remote, want %d total",
			st.RoutedLocal, st.RoutedRemote, len(cfgs))
	}
	assertAllCachesFinite(t, nodes)
}

// The cluster chaos acceptance test: with peer.down, peer.partition, and
// peer.latency armed across the seed matrix, a full sweep through the
// coordinator must succeed byte-identically (1e-9 rel) to the fault-free
// single-node reference, nothing non-finite may replicate anywhere, and
// the peer.* sites must be reported on /v1/stats.
func TestClusterChaos(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster chaos is seconds-long; skipped under -short")
	}
	t.Cleanup(faultinject.Disable)
	cfgs := testGridConfigs()
	want := singleNodeReference(t, cfgs)

	for _, seed := range chaosSeeds(t) {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			faultinject.Disable()
			nodes := newTestCluster(t, 3, 2)
			client := NewClient(nodes[0].baseURL, nil)

			faultinject.Enable(faultinject.Plan{Seed: seed, Rates: map[string]float64{
				faultinject.PeerDown:      0.15,
				faultinject.PeerPartition: 0.10,
				faultinject.PeerReset:     0.05,
				faultinject.PeerLatency:   0.20,
				faultinject.PeerLatencyMS: 5,
			}})
			if !faultinject.Enabled() {
				t.Skip("fault injection is compiled out (repro_nofaults)")
			}
			got, err := client.EvalBatch(context.Background(), cfgs)
			if err != nil {
				t.Fatalf("sweep under cluster chaos failed: %v", err)
			}
			for i := range want {
				wantJSON, _ := json.Marshal(want[i])
				gotJSON, _ := json.Marshal(got[i])
				if !bytes.Equal(wantJSON, gotJSON) && !approxJSON(gotJSON, wantJSON, 1e-9) {
					t.Errorf("point %d diverged beyond 1e-9 under chaos:\n cluster %s\n single  %s", i, gotJSON, wantJSON)
				}
			}

			// /v1/stats must report the fired peer.* sites and the cluster block.
			resp, err := http.Get(nodes[0].baseURL + "/v1/stats")
			if err != nil {
				t.Fatal(err)
			}
			var stats StatsResponse
			if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if stats.Cluster == nil {
				t.Fatal("/v1/stats missing the cluster block on a cluster-wired server")
			}
			fired := uint64(0)
			for site, count := range stats.Faults {
				switch site {
				case faultinject.PeerDown, faultinject.PeerPartition, faultinject.PeerReset, faultinject.PeerLatency:
					fired += count
				}
			}
			if fired == 0 {
				t.Error("no peer.* site reported fired on /v1/stats during cluster chaos")
			}

			faultinject.Disable()
			flushCluster(t, nodes)
			assertAllCachesFinite(t, nodes)
		})
	}
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, d time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// healthStatus fetches a node's /healthz status string.
func healthStatus(t *testing.T, baseURL string) string {
	t.Helper()
	resp, err := http.Get(baseURL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h HealthResponse
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	return h.Status
}

// Killing a node mid-sweep must not surface a single client error: the
// coordinator reports degraded while the peer is down, completes the sweep
// through failover, flips back to ok when the peer rejoins, and the
// rejoined node re-syncs its arc from its successors.
func TestClusterKillRejoinResync(t *testing.T) {
	if testing.Short() {
		t.Skip("kill/rejoin test is seconds-long; skipped under -short")
	}
	nodes := newTestCluster(t, 3, 2)
	cfgs := testGridConfigs()
	want := singleNodeReference(t, cfgs)
	client := NewClient(nodes[0].baseURL, nil)

	if got := healthStatus(t, nodes[0].baseURL); got != "ok" {
		t.Fatalf("coordinator /healthz before the kill = %q, want ok", got)
	}

	// First half of the sweep with all nodes alive.
	firstHalf, err := client.EvalBatch(context.Background(), cfgs[:len(cfgs)/2])
	if err != nil {
		t.Fatal(err)
	}

	// SIGKILL-equivalent: node-2's handler disappears mid-sweep.
	nodes[2].swap.kill()
	waitFor(t, "coordinator to see node-2 dead", 10*time.Second, func() bool {
		return !nodes[0].node.Healthy()
	})
	if got := healthStatus(t, nodes[0].baseURL); got != "degraded" {
		t.Errorf("coordinator /healthz with a dead peer = %q, want degraded", got)
	}

	// Rest of the sweep with the node dead: zero client-visible errors.
	secondHalf, err := client.EvalBatch(context.Background(), cfgs[len(cfgs)/2:])
	if err != nil {
		t.Fatalf("sweep with a dead node failed: %v", err)
	}
	got := append(append([]*core.Result{}, firstHalf...), secondHalf...)
	for i := range want {
		wantJSON, _ := json.Marshal(want[i])
		gotJSON, _ := json.Marshal(got[i])
		// 1e-9 relative, same bar as the chaos matrix: whether a point is
		// patched onto a pooled session or fully prepared depends on
		// evaluation order and legitimately perturbs the last couple of
		// ULPs.
		if !bytes.Equal(wantJSON, gotJSON) && !approxJSON(gotJSON, wantJSON, 1e-9) {
			t.Errorf("point %d: kill-mid-sweep result diverged beyond 1e-9 from single-node:\n cluster %s\n single  %s", i, gotJSON, wantJSON)
		}
	}

	// Rejoin: the handler comes back (same URL, fresh as far as peers know).
	nodes[2].swap.set(nodes[2].svc)
	waitFor(t, "coordinator to see node-2 alive", 10*time.Second, func() bool {
		return nodes[0].node.Healthy() && nodes[1].node.Healthy()
	})
	waitFor(t, "coordinator /healthz back to ok", 10*time.Second, func() bool {
		return healthStatus(t, nodes[0].baseURL) == "ok"
	})

	// The restarted node pulls its arc back (what cmd/server does at boot).
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	nodes[2].node.Resync(ctx)
	flushCluster(t, nodes)

	// Every point node-2 is a replica for must now be in node-2's cache.
	missing := 0
	for _, cfg := range cfgs {
		key := engine.Fingerprint(cfg)
		if !nodes[2].node.HasReplica(key, "node-2") {
			continue
		}
		if _, ok := nodes[2].eng.Cached(cfg); !ok {
			missing++
		}
	}
	if missing > 0 {
		t.Errorf("rejoined node missing %d entries of its arc after re-sync", missing)
	}
	assertAllCachesFinite(t, nodes)
}

// TestClusterTracePropagation injects a trace id at one node (the
// coordinator) and requires the same id to ride the peer hops the sweep
// takes across the ring and to come back to the client on the NDJSON
// terminal done line — one id ties the distributed evaluation together
// end to end.
func TestClusterTracePropagation(t *testing.T) {
	faultinject.Disable()
	nodes := newTestCluster(t, 3, 2)

	const traceID = "trace-prop-e2e-0001"

	// Record the trace header on every peer-solve hop into node-1/node-2.
	// Heartbeats and async replication run on background contexts and are
	// deliberately not traced; only request-scoped hops count.
	var tracedHops, untracedHops atomic.Int64
	for _, cn := range nodes[1:] {
		svc := cn.svc
		cn.swap.set(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == cluster.PeerSolvePath {
				if r.Header.Get("X-Repro-Trace-Id") == traceID {
					tracedHops.Add(1)
				} else {
					untracedHops.Add(1)
				}
			}
			svc.ServeHTTP(w, r)
		}))
	}

	cfgs := testGridConfigs()
	payload, _ := json.Marshal(BatchRequest{Configs: cfgs})
	req, _ := http.NewRequest(http.MethodPost, nodes[0].baseURL+"/v1/batch", bytes.NewReader(payload))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("Accept", ndjsonType)
	req.Header.Set("X-Repro-Trace-Id", traceID)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("streamed batch: HTTP %d", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Repro-Trace-Id"); got != traceID {
		t.Errorf("response echoed trace id %q, want %q", got, traceID)
	}

	var last BatchStreamLine
	n := 0
	sc := streamScanner(resp)
	for sc.Scan() {
		if err := json.Unmarshal(sc.Bytes(), &last); err != nil {
			t.Fatalf("line %d undecodable: %v", n, err)
		}
		n++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if n != len(cfgs)+1 || !last.Done {
		t.Fatalf("stream delivered %d lines (done=%v), want %d point lines plus done", n, last.Done, len(cfgs))
	}
	if last.TraceID != traceID {
		t.Errorf("done line carries trace id %q, want %q", last.TraceID, traceID)
	}

	remote := nodes[0].node.Status().RoutedRemote
	if remote == 0 {
		t.Fatalf("coordinator routed nothing remotely; trace propagation not exercised")
	}
	if tracedHops.Load() == 0 {
		t.Errorf("no peer-solve hop carried the injected trace id (%d untraced hops, %d routed remote)",
			untracedHops.Load(), remote)
	}
	if untracedHops.Load() != 0 {
		t.Errorf("%d peer-solve hops arrived without the injected trace id", untracedHops.Load())
	}
}
