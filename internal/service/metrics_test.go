package service

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/ctmc"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/persist"
)

// fullyWiredServer builds a server with every optional metric source
// attached — engine backend, a single-member cluster node, and a
// checkpoint status feed — so the exposition and the name golden cover the
// complete family set a production cluster node exports.
func fullyWiredServer(t *testing.T) (*engine.Engine, *Server) {
	t.Helper()
	eng := engine.New(engine.Options{})
	node, err := cluster.NewNode(cluster.Options{
		SelfID:            "node-0",
		Members:           []cluster.Member{{ID: "node-0", URL: "http://127.0.0.1:0"}},
		Replication:       1,
		HeartbeatInterval: time.Hour,
		Engine:            eng,
	})
	if err != nil {
		t.Fatal(err)
	}
	svc := New(Options{
		Backend: eng,
		Cluster: node,
		CheckpointStatus: func() persist.CheckpointStatus {
			return persist.CheckpointStatus{LastSuccess: time.Now(), SavesOK: 1}
		},
	})
	return eng, svc
}

// TestMetricsExposition drives real traffic through a fully-wired server,
// scrapes GET /metrics, and requires (a) a strictly valid Prometheus text
// exposition and (b) the core series of every subsystem — engine, service,
// solver, stages, cluster, checkpoint, fault injection, build info — to be
// present. This is the same bar CI's serve-smoke scrape enforces.
func TestMetricsExposition(t *testing.T) {
	eng, svc := fullyWiredServer(t)
	ts := httptest.NewServer(svc)
	defer ts.Close()
	client := NewClient(ts.URL, ts.Client())

	cfgs := testGridConfigs()
	if _, err := client.EvalBatch(context.Background(), cfgs); err != nil {
		t.Fatal(err)
	}
	if _, err := client.EvalBatch(context.Background(), cfgs); err != nil { // warm hits
		t.Fatal(err)
	}
	if eng.Stats().Hits == 0 {
		t.Fatal("warm replay produced no cache hits; scrape would not exercise hit series")
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: HTTP %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != obs.ContentType {
		t.Errorf("Content-Type = %q, want %q", ct, obs.ContentType)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if err := obs.ValidateExposition(body); err != nil {
		t.Fatalf("exposition invalid: %v", err)
	}

	text := string(body)
	for _, series := range []string{
		"repro_engine_cache_hits_total ",
		"repro_engine_cache_misses_total ",
		"repro_engine_evals_total ",
		"repro_service_requests_total ",
		"repro_service_points_total ",
		"repro_service_inflight ",
		"repro_solver_solves_total ",
		"repro_solver_iterations_total ",
		`repro_stage_duration_seconds_count{stage="solve"}`,
		`repro_stage_duration_seconds_count{stage="assemble"}`,
		`repro_http_request_duration_seconds_bucket{route="/v1/batch",le="+Inf"}`,
		"repro_cluster_routed_local_total ",
		"repro_cluster_replication ",
		"repro_checkpoint_saves_ok_total ",
		"repro_faultinject_armed ",
		"repro_build_info{",
	} {
		if !strings.Contains(text, series) {
			t.Errorf("scrape is missing core series %q", series)
		}
	}
	// Traffic actually flowed through the instrumented paths.
	if !strings.Contains(text, "repro_service_requests_total 2") {
		t.Errorf("request counter did not count the two batch requests:\n%s",
			grepLines(text, "repro_service_requests_total"))
	}
	// Under auto the exact block-triangular rung answers the paper's
	// chains, and the solve histograms say so.
	if ctmc.DefaultSolverBackend().Name() == ctmc.BackendAuto {
		const direct = `repro_solver_solve_duration_seconds_count{backend="blocktri-direct"} `
		line := grepLines(text, direct)
		if line == "" || strings.HasSuffix(line, " 0") {
			t.Errorf("no solve answered by the direct rung in the scrape: %q", line)
		}
	}
}

// grepLines returns the lines of text containing substr (test diagnostics).
func grepLines(text, substr string) string {
	var out []string
	for _, ln := range strings.Split(text, "\n") {
		if strings.Contains(ln, substr) {
			out = append(out, ln)
		}
	}
	return strings.Join(out, "\n")
}

// TestMetricNamesGolden pins the exported metric-family names — the
// monitoring contract dashboards and alerts are written against — the same
// way testdata/api_surface.golden pins the Go API. Renaming or dropping a
// family fails here before any dashboard notices. Intentional changes
// regenerate with:
//
//	REGEN_METRICS_NAMES=1 go test -run TestMetricNamesGolden ./internal/service/
func TestMetricNamesGolden(t *testing.T) {
	eng, svc := fullyWiredServer(t)

	seen := make(map[string]bool)
	for _, reg := range []*obs.Registry{obs.Default(), eng.Metrics(), svc.Metrics()} {
		for _, name := range reg.MetricNames() {
			if seen[name] {
				t.Errorf("metric family %q registered in more than one registry; /metrics would emit a duplicate", name)
			}
			seen[name] = true
		}
	}
	names := make([]string, 0, len(seen))
	for name := range seen {
		names = append(names, name)
	}
	// MetricNames is sorted per registry; re-sort the union.
	for i := 1; i < len(names); i++ {
		for j := i; j > 0 && names[j] < names[j-1]; j-- {
			names[j], names[j-1] = names[j-1], names[j]
		}
	}
	got := strings.Join(names, "\n") + "\n"

	golden := filepath.Join("testdata", "metrics_names.golden")
	if os.Getenv("REGEN_METRICS_NAMES") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("regenerated %s (%d families)", golden, len(names))
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing metrics golden (regenerate with REGEN_METRICS_NAMES=1): %v", err)
	}
	if got != string(want) {
		t.Errorf("exported metric families diverged from %s.\n"+
			"If intentional, regenerate with REGEN_METRICS_NAMES=1 go test -run TestMetricNamesGolden ./internal/service/\n"+
			"got:\n%s", golden, got)
	}
}
