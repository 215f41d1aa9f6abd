// Command server runs the evaluation service daemon: the memoizing
// evaluation engine behind the HTTP/JSON API of internal/service, with an
// optional persistent result-cache snapshot for warm restarts.
//
// Usage:
//
//	server [-addr host:port] [-snapshot file] [-checkpoint interval]
//	       [-inflight n] [-max-batch n] [-workers n]
//	       [-cache-size n] [-prepared-mb mb] [-solve-timeout d]
//	       [-node-id id -peers id=url,...] [-replication r]
//	       [-heartbeat interval] [-debug-addr host:port]
//	       [-log-level level] [-version]
//
// With -peers and -node-id set, the daemon joins a fault-tolerant
// evaluation cluster: -peers lists every member (this node included) as
// id=url pairs — the same list, in any order, on every node — and the
// members consistently hash the engine's Config fingerprints across a
// shared ring. Each point evaluated through /v1/batch, /v1/eval, or
// /v1/frontier routes to its ring owner, replicates to -replication nodes,
// and fails over (next replica, then a local degraded solve) when peers
// die; a restarted node re-syncs its arc of the keyspace from its
// successors. /healthz reports "degraded" while any peer is believed down.
//
// With -snapshot set, the server warm-starts its result cache at boot from
// the freshest valid snapshot generation — the current file, or the .prev
// generation if the current one is torn, corrupt, or stale (a crash
// mid-checkpoint therefore costs at most one interval of warmth, never the
// whole cache) — then checkpoints the cache every -checkpoint interval and
// once more during graceful shutdown (SIGINT/SIGTERM), so a replayed sweep
// after a restart is served from cache instead of re-solved. Shutdown
// flips /healthz to 503 (draining) before the listener stops accepting, so
// load balancers stop routing new traffic while in-flight requests finish.
//
// Telemetry: GET /metrics on the main listener serves the Prometheus text
// exposition of every engine, solver, service, cluster, checkpoint, and
// fault-injection series. -debug-addr binds a second, operator-only
// listener serving net/http/pprof under /debug/pprof/ and adds Go runtime
// series (goroutines, heap, GC pauses) to /metrics. Logs are structured
// (log/slog) key=value lines carrying component, node-id, and — on request
// lines — the request's trace id; -log-level debug enables per-request
// lines.
//
// The REPRO_FAULTS environment variable arms the deterministic
// fault-injection seam for chaos testing (e.g.
// REPRO_FAULTS="seed=42,http.err5xx=0.05"); it is parsed at boot and the
// active plan is logged. A malformed plan is fatal — a chaos run that
// silently tests nothing is worse than no run.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/ctmc"
	"repro/internal/engine"
	"repro/internal/faultinject"
	"repro/internal/obs"
	"repro/internal/persist"
	"repro/internal/service"
)

// parseLogLevel maps the -log-level flag to a slog.Level.
func parseLogLevel(s string) (slog.Level, error) {
	switch s {
	case "debug":
		return slog.LevelDebug, nil
	case "info":
		return slog.LevelInfo, nil
	case "warn":
		return slog.LevelWarn, nil
	case "error":
		return slog.LevelError, nil
	}
	return 0, fmt.Errorf("unknown log level %q (want debug|info|warn|error)", s)
}

func main() {
	addr := flag.String("addr", "127.0.0.1:8080", "listen address")
	snapshot := flag.String("snapshot", "", "result-cache snapshot file for warm restarts (empty = no persistence)")
	checkpoint := flag.Duration("checkpoint", 5*time.Minute, "periodic snapshot interval (with -snapshot)")
	inflight := flag.Int("inflight", 0, "max concurrently admitted eval/batch requests; excess gets 429 (0 = 4x GOMAXPROCS)")
	maxBatch := flag.Int("max-batch", 0, "max configurations per batch request (0 = 4096)")
	workers := flag.Int("workers", 0, "evaluation worker pool size (0 = GOMAXPROCS)")
	cacheSize := flag.Int("cache-size", 0, "result cache entries (0 = 4096)")
	preparedMB := flag.Int64("prepared-mb", 0, "family-store budget in MiB: each structural family's anchor graph and idle sessions (0 = 256)")
	solveTimeout := flag.Duration("solve-timeout", 0, "per-point watchdog: abandon a solve with a retryable 503 after this long (0 = no watchdog)")
	nodeID := flag.String("node-id", "", "this node's cluster identity (requires -peers)")
	peers := flag.String("peers", "", "full cluster topology as id=url,id=url,... including this node (empty = single-node)")
	replication := flag.Int("replication", 2, "cache-entry replicas per key across the ring (clamped to the member count)")
	heartbeat := flag.Duration("heartbeat", 500*time.Millisecond, "cluster peer heartbeat interval")
	debugAddr := flag.String("debug-addr", "", "operator-only listener for net/http/pprof and runtime metrics (empty = disabled)")
	logLevel := flag.String("log-level", "info", "log verbosity: debug|info|warn|error (debug adds per-request lines)")
	version := flag.Bool("version", false, "print build/version info and exit")
	flag.Parse()
	if *version {
		fmt.Println(obs.VersionString("server"))
		return
	}

	level, err := parseLogLevel(*logLevel)
	if err != nil {
		fmt.Fprintln(os.Stderr, "server:", err)
		os.Exit(2)
	}
	logger := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: level})).
		With("component", "server")
	if *nodeID != "" {
		logger = logger.With("node_id", *nodeID)
	}
	fatal := func(msg string, args ...any) {
		logger.Error(msg, args...)
		os.Exit(1)
	}
	// persist and cluster speak printf-style Logf; bridge into slog so every
	// line shares the handler (and stays grep-compatible as a msg substring).
	logf := func(format string, args ...any) {
		logger.Info(fmt.Sprintf(format, args...))
	}

	// A typo'd REPRO_SOLVER must kill the daemon at boot, not surface as a
	// per-request evaluation error that reads like a client mistake.
	if err := ctmc.ValidateDefaultSolver(); err != nil {
		fatal("refusing to start", "error", err)
	}
	// Same contract for REPRO_FAULTS: arm it loudly or die loudly.
	if armed, err := faultinject.EnableFromEnv(); err != nil {
		fatal("refusing to start", "error", err)
	} else if armed {
		logf("FAULT INJECTION ARMED: %s=%q", faultinject.EnvVar, os.Getenv(faultinject.EnvVar))
	}

	logger.Info("starting", "build", obs.VersionString("server"))

	eng := engine.New(engine.Options{
		CacheSize:          *cacheSize,
		PreparedCacheBytes: *preparedMB << 20,
		Workers:            *workers,
	})

	var ckpt *persist.Checkpointer
	if *snapshot != "" {
		n, gen, err := persist.WarmStartAuto(eng, *snapshot, logf)
		switch {
		case err != nil:
			logf("no usable snapshot generation, booting cold: %v", err)
		case n > 0:
			logf("warm start: %d cached results restored from %s generation of %s", n, gen, *snapshot)
		default:
			logf("cold start: no snapshot at %s yet", *snapshot)
		}
		ckpt = persist.NewCheckpointer(eng, *snapshot, *checkpoint)
		ckpt.Logf = logf
		ckpt.Start(func(err error) { logger.Warn("checkpoint failed", "error", err) })
	}

	var node *cluster.Node
	if *peers != "" || *nodeID != "" {
		members, err := cluster.ParseMembers(*peers)
		if err != nil {
			fatal("refusing to start", "error", err)
		}
		node, err = cluster.NewNode(cluster.Options{
			SelfID:            *nodeID,
			Members:           members,
			Replication:       *replication,
			HeartbeatInterval: *heartbeat,
			Engine:            eng,
			Logf:              logf,
		})
		if err != nil {
			fatal("refusing to start", "error", err)
		}
		logf("cluster: node %q in %d-member ring, replication %d",
			node.SelfID(), len(node.Members()), node.Replication())
	}

	svc := service.New(service.Options{
		Backend:        eng,
		MaxInflight:    *inflight,
		MaxBatchPoints: *maxBatch,
		SolveTimeout:   *solveTimeout,
		Cluster:        node,
		Logger:         logger,
		CheckpointStatus: func() persist.CheckpointStatus {
			if ckpt == nil {
				return persist.CheckpointStatus{}
			}
			return ckpt.Status()
		},
	})

	if *debugAddr != "" {
		// The debug listener binds separately from the service so pprof and
		// runtime internals never ship on the public address. Runtime series
		// also register into the service registry: once an operator opts
		// into the debug surface, /metrics carries goroutine/heap/GC gauges.
		obs.RegisterRuntimeMetrics(svc.Metrics())
		dmux := http.NewServeMux()
		dmux.HandleFunc("/debug/pprof/", pprof.Index)
		dmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		dmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		dmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		dmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		dmux.Handle("/metrics", svc)
		go func() {
			logger.Info("debug listener up", "debug_addr", *debugAddr)
			if err := http.ListenAndServe(*debugAddr, dmux); err != nil {
				logger.Error("debug listener failed", "error", err)
			}
		}()
	}

	srv := &http.Server{
		Addr:              *addr,
		Handler:           svc,
		ReadHeaderTimeout: 10 * time.Second,
	}

	// Serve until SIGINT/SIGTERM, then drain in-flight requests and write
	// the final checkpoint so the next boot is warm.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	if node != nil {
		// Heartbeats, the replication worker, and the rejoin re-sync start
		// once the listener is up, so peers probing back find us alive.
		node.Start()
	}
	logf("listening on %s (snapshot=%q)", *addr, *snapshot)

	select {
	case err := <-errc:
		fatal("serve failed", "error", err)
	case <-ctx.Done():
	}
	// Draining first: /healthz flips to 503 so orchestrators stop routing
	// here, then the listener shuts down gracefully under a deadline.
	svc.SetDraining(true)
	logf("shutting down (draining)")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		logger.Warn("shutdown", "error", err)
	}
	if node != nil {
		node.Stop()
	}
	if ckpt != nil {
		if err := ckpt.Stop(); err != nil {
			logger.Error("final checkpoint failed", "error", err)
		} else {
			logf("final checkpoint written to %s", *snapshot)
		}
	}
	st := eng.Stats()
	logf("served %s", st.String())
	logf("incremental: %d patched solves, %d refactorizations, %d structural re-prepares",
		st.PatchedSolves, st.Refactorizations, st.StructuralRepreps)
}
