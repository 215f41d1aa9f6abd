package main

// cluster_mixed: a 3-node in-process ring (replication 2, default engine and
// heartbeat options) serving 4-point batches sent round-robin to the nodes.

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/service"
)

const clusterNodes = 3

type clusterNode struct {
	id   string
	eng  *engine.Engine
	node *cluster.Node
	ts   *httptest.Server
	h    atomic.Pointer[http.Handler]
}

type clusterInstance struct {
	nodes   []*clusterNode
	hc      *http.Client
	clients []*service.Client // one per node, sharing hc's transport
}

func (ci *clusterInstance) close() {
	for _, n := range ci.nodes {
		if n.node != nil {
			n.node.Stop()
		}
		n.ts.Close()
	}
}

// bootCluster starts the ring. Servers listen first, because every node's
// membership names every URL; handlers are installed once the nodes exist.
func bootCluster(rc *runCtx) (*clusterInstance, error) {
	ci := &clusterInstance{}
	members := make([]cluster.Member, clusterNodes)
	for i := range members {
		n := &clusterNode{id: fmt.Sprintf("node-%d", i)}
		var unavailable http.Handler = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			http.Error(w, "booting", http.StatusServiceUnavailable)
		})
		n.h.Store(&unavailable)
		n.ts = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			(*n.h.Load()).ServeHTTP(w, r)
		}))
		ci.nodes = append(ci.nodes, n)
		members[i] = cluster.Member{ID: n.id, URL: n.ts.URL}
	}
	ci.hc = httpClient(rc, rc.def.Clients)
	for _, n := range ci.nodes {
		n.eng = engine.New(engine.Options{})
		var peerHTTP *http.Client // nil: the node's default client
		if rc.tr != nil {
			peerHTTP = &http.Client{Transport: peerTransport{t: rc.tr, node: n.id, base: http.DefaultTransport}}
		}
		node, err := cluster.NewNode(cluster.Options{
			SelfID:      n.id,
			Members:     members,
			Replication: 2,
			Engine:      n.eng,
			HTTPClient:  peerHTTP,
		})
		if err != nil {
			ci.close()
			return nil, err
		}
		n.node = node
		svc := service.New(service.Options{Backend: backendFor(rc, n.id, n.eng), Cluster: node})
		h := handlerFor(rc, n.id, svc)
		n.h.Store(&h)
		ci.clients = append(ci.clients, service.NewClient(n.ts.URL, ci.hc))
	}
	for _, n := range ci.nodes {
		n.node.Start()
	}
	return ci, nil
}

// flush drains every node's replication queue.
func (ci *clusterInstance) flush() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for _, n := range ci.nodes {
		if err := n.node.FlushReplication(ctx); err != nil {
			return fmt.Errorf("replication flush on %s: %w", n.id, err)
		}
	}
	return nil
}

func (ci *clusterInstance) counts() (engineCounts, cluster.Status) {
	var ec engineCounts
	var st cluster.Status
	for _, n := range ci.nodes {
		ec = ec.add(countsOf(n.eng.Stats()))
		s := n.node.Status()
		st.RoutedLocal += s.RoutedLocal
		st.RoutedRemote += s.RoutedRemote
		st.DegradedSolves += s.DegradedSolves
	}
	return ec, st
}

func runClusterMixed(rc *runCtx) error {
	prime := clusterPrimeSet(rc.seed)
	ops := newClusterOps(rc.seed)
	var firstMu sync.Mutex
	first := make(map[int]answerPrint) // point id -> its first answer

	inst, closeFn, err := setup(rc, func(rep int) (*clusterInstance, func(), error) {
		ci, err := bootCluster(rc)
		if err != nil {
			return nil, nil, err
		}
		// Prime the ring with the issued set the repeats start from, then
		// let replication settle.
		batches := len(prime) / clusterBatch
		errs := make([]error, batches)
		core.ForEachIndexed(batches, rc.def.Clients, func(b int) {
			cfgs := prime[b*clusterBatch : (b+1)*clusterBatch]
			res, err := ci.clients[b%clusterNodes].EvalBatch(context.Background(), cfgs)
			if err != nil {
				errs[b] = err
				return
			}
			if rep == 0 {
				firstMu.Lock()
				for j := range cfgs {
					first[b*clusterBatch+j] = printOf(res[j])
				}
				firstMu.Unlock()
			}
		})
		for _, err := range errs {
			if err != nil {
				ci.close()
				return nil, nil, fmt.Errorf("priming: %w", err)
			}
		}
		if err := ci.flush(); err != nil {
			ci.close()
			return nil, nil, err
		}
		return ci, ci.close, nil
	})
	if err != nil {
		return err
	}
	defer closeFn()

	off := sampleOffset(rc.seed, 16)
	type freshSample struct {
		cfg core.Config
		got *core.Result
	}
	var samples []freshSample
	var freshPoints, repeatPoints int64
	ecBefore, stBefore := inst.counts()
	rc.closedLoop(rc.def.Clients, func(ctx context.Context, c, i int) (time.Duration, int, error) {
		op := ops.take(i)
		var got []*core.Result
		lat, err := rc.timed(ctx, func(ctx context.Context) error {
			var err error
			got, err = inst.clients[i%clusterNodes].EvalBatch(ctx, op.Cfgs)
			return err
		})
		if err != nil {
			return lat, 0, err
		}
		firstMu.Lock()
		defer firstMu.Unlock()
		for j, id := range op.IDs {
			if got[j] == nil || got[j].Config != op.Cfgs[j] {
				rc.wrong.Add(1)
				continue
			}
			if ref, ok := first[id]; ok {
				rc.checked.Add(1)
				if !ref.matches(got[j]) {
					rc.wrong.Add(1)
				}
			} else {
				first[id] = printOf(got[j])
			}
			if j == op.Fresh {
				freshPoints++
			} else {
				repeatPoints++
			}
		}
		if i%16 == off {
			samples = append(samples, freshSample{op.Cfgs[op.Fresh], got[op.Fresh]})
		}
		return lat, len(op.Cfgs), nil
	}, rc.scraper(func() (time.Duration, error) {
		return rc.scrapeMetrics(inst.hc, inst.nodes[0].ts.URL)
	}))
	ecAfter, stAfter := inst.counts()

	// A seeded 1-in-16 sample of fresh points against the direct path.
	core.ForEachIndexed(len(samples), rc.def.Clients, func(k int) {
		want, err := core.Analyze(samples[k].cfg)
		rc.checked.Add(1)
		if err != nil || !closeResult(samples[k].got, want) {
			rc.wrong.Add(1)
		}
	})

	ec := ecAfter.sub(ecBefore)
	remote := stAfter.RoutedRemote - stBefore.RoutedRemote
	routed := remote + (stAfter.RoutedLocal - stBefore.RoutedLocal) + (stAfter.DegradedSolves - stBefore.DegradedSolves)
	points := float64(freshPoints + repeatPoints)
	rc.shares = map[string]float64{
		"fresh":                  float64(freshPoints) / points,
		"repeat":                 float64(repeatPoints) / points,
		"remote_first_touch":     float64(remote) / points,
		"resolve_after_eviction": max(float64(ec.evals)-float64(freshPoints), 0) / points,
		"evictions_per_point":    float64(ec.evictions) / points,
	}
	rc.layers = engineLayers(ec)
	if routed > 0 {
		rc.layers["cluster.routed_remote_ratio"] = float64(remote) / float64(routed)
	}
	return nil
}
