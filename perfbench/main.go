// Command perfbench is the repository's end-to-end benchmark: four seeded,
// closed-loop workloads driven through the program's public entry points —
// the HTTP service and its client, the cluster ring, core's sweep drivers
// and the adaptive frontier — with every answer checked against a reference.
//
// Usage (from the repository root; run.sh builds this package first):
//
//	bash perfbench/run.sh --workload serve_hot [--seed 1] [--seconds 30] [--trace 0|1]
//	bash perfbench/run.sh compare PARENT_RUNS CHANGE_RUNS
//
// A run prints its input digest and input shares, the answers it checked,
// its metrics by name and unit, and as its last line one JSON object
// {"correct","attempted","failed","metrics"}: the end-to-end metrics, or
// with --trace 1 the per-layer metrics of a run that times every call into
// each layer from outside. Each run also writes a record under
// .bench_build/runs/, which compare reads. The exit code is 1 when any
// answer was wrong or any op failed.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// defaultSeed is the seed a run uses when none is given.
const defaultSeed = 1

// defaultSeconds is the timed phase of a run when --seconds is not given;
// BENCHMARK.json's run_seconds.
const defaultSeconds = 30

// outDir holds run records, traces and scratch files, relative to the
// directory the benchmark runs in.
const outDir = ".bench_build"

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout))
	}
	os.Exit(runMain(os.Args[1:], os.Stdout))
}

// metricValue and result are the contract's last-line JSON object.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// record is everything one run measured, as written to .bench_build/runs.
type record struct {
	Workload    string             `json:"workload"`
	Seed        uint64             `json:"seed"`
	Seconds     int                `json:"seconds"`
	Trace       bool               `json:"trace"`
	Started     time.Time          `json:"started"`
	GoVersion   string             `json:"go_version"`
	GOMAXPROCS  int                `json:"gomaxprocs"`
	Clients     int                `json:"clients"`
	InputDigest string             `json:"input_digest"`
	Shares      map[string]float64 `json:"input_shares"`
	Ops         int64              `json:"ops"`
	Checked     int64              `json:"checked_answers"`
	Wrong       int64              `json:"wrong_answers"`
	FailedOps   int64              `json:"failed_ops"`
	TailPct     float64            `json:"tail_percentile"`
	SetupTimes  []float64          `json:"setup_times_s"`
	EndToEnd    map[string]float64 `json:"end_to_end"`
	PerLayer    map[string]float64 `json:"per_layer,omitempty"`
	Result      result             `json:"result"`
}

func runMain(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload to run: "+workloadNames())
	seed := fs.Uint64("seed", defaultSeed, "seed every input is drawn from")
	seconds := fs.Int("seconds", defaultSeconds, "length of the timed phase in seconds")
	trace := fs.Int("trace", 0, "1 times every layer from outside and reports the per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	def, ok := workloadByName(*workload)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) || fs.NArg() != 0 {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload %s, --seconds >= 1 and --trace 0|1\n", workloadNames())
		return 2
	}
	rec, err := run(def, *seed, *seconds, *trace == 1, stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(rec.Result)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !rec.Result.Correct {
		return 1
	}
	return 0
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.Name
	}
	return strings.Join(names, "|")
}

// run executes one workload and reports it.
func run(def workloadDef, seed uint64, seconds int, traced bool, w io.Writer) (*record, error) {
	runs := filepath.Join(outDir, "runs")
	if err := os.MkdirAll(runs, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(outDir, def.Name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	rc := &runCtx{def: def, seed: seed, seconds: time.Duration(seconds) * time.Second, dir: dir}
	if traced {
		rc.tr = newTracer()
	}
	rec := &record{
		Workload: def.Name, Seed: seed, Seconds: seconds, Trace: traced,
		Started: time.Now().UTC(), GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Clients: def.Clients, InputDigest: def.digest(seed), TailPct: def.TailPct,
	}
	fmt.Fprintf(w, "perfbench %s  seed=%d  seconds=%d  trace=%v  clients=%d  GOMAXPROCS=%d  %s\n",
		def.Name, seed, seconds, traced, def.Clients, rec.GOMAXPROCS, rec.GoVersion)
	fmt.Fprintf(w, "input digest %s (first %d ops)\n", rec.InputDigest, digestOps)

	stagesBefore := stageSums()
	t0 := time.Now()
	if err := def.run(rc); err != nil {
		return nil, fmt.Errorf("%s: %w", def.Name, err)
	}
	if len(rc.loop.ops) == 0 {
		return nil, errors.New(def.Name + ": no op completed")
	}
	var setupTotal float64
	for _, s := range rc.setupTimes {
		setupTotal += s
	}
	took := time.Since(t0).Seconds()
	fmt.Fprintf(w, "run took %.1f s: set-up %.1f s (%d times), timed %.1f s, checks and teardown %.1f s\n",
		took, setupTotal, len(rc.setupTimes), rc.loop.wall.Seconds(), took-setupTotal-rc.loop.wall.Seconds())
	rec.Shares = rc.shares
	rec.Ops = rc.loop.attempted
	rec.Checked, rec.Wrong, rec.FailedOps = rc.checked.Load(), rc.wrong.Load(), rc.failedOps.Load()
	rec.SetupTimes = rc.setupTimes
	rec.EndToEnd = rc.endToEnd()

	fmt.Fprintf(w, "input shares:")
	for _, k := range sortedKeys(rec.Shares) {
		fmt.Fprintf(w, " %s=%.4f", k, rec.Shares[k])
	}
	fmt.Fprintf(w, "\nops %d, latency samples %d (tail = p%g), checked answers %d, wrong %d, failed ops %d, error_ratio %.6f\n",
		rec.Ops, len(rc.loop.ops), def.TailPct, rec.Checked, rec.Wrong, rec.FailedOps,
		float64(rec.Wrong+rec.FailedOps)/float64(rec.Ops+rec.Checked))
	printMetrics(w, "end-to-end", endToEndDefs, rec.EndToEnd)

	reported, defs := rec.EndToEnd, endToEndDefs
	if traced {
		stats := rc.tr.finish()
		rec.PerLayer = rc.perLayer(stats)
		printSpanTable(w, stats)
		printMetrics(w, "per-layer", perLayerDefs, rec.PerLayer)
		printOverhead(w, runs, rec)
		printStageCrossCheck(w, stagesBefore, stageSums(), stats)
		tracePath := filepath.Join(outDir, "trace_"+def.Name+".json")
		if err := rc.tr.writeTrace(tracePath, def.Name, seed); err != nil {
			return nil, fmt.Errorf("writing %s: %w", tracePath, err)
		}
		fmt.Fprintf(w, "wrote %s\n", tracePath)
		reported, defs = rec.PerLayer, perLayerDefs
	}

	rec.Result = result{
		Correct:   rec.Wrong == 0 && rec.FailedOps == 0,
		Attempted: rec.Ops + rec.Checked,
		Failed:    rec.Wrong + rec.FailedOps,
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	for _, d := range defs {
		rec.Result.Metrics[d.Name] = metricValue{Value: reported[d.Name], Unit: d.Unit}
	}
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return nil, err
	}
	name := fmt.Sprintf("%s-seed%d-trace%d-%d.json", def.Name, seed, boolN(traced), rec.Started.UnixNano())
	if err := os.WriteFile(filepath.Join(runs, name), append(data, '\n'), 0o644); err != nil {
		return nil, err
	}
	return rec, nil
}

func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func printMetrics(w io.Writer, title string, defs []metricDef, vals map[string]float64) {
	fmt.Fprintf(w, "\n%s metrics:\n", title)
	for _, d := range defs {
		fmt.Fprintf(w, "  %-30s %16.6g %-6s", d.Name, vals[d.Name], d.Unit)
		if d.Moves != "" {
			fmt.Fprintf(w, "  should move: %s", d.Moves)
		}
		fmt.Fprintln(w)
	}
}

// printOverhead compares a traced run's end-to-end metrics with the most
// recent untraced run of the same workload, seed and length: the cost of
// tracing.
func printOverhead(w io.Writer, runs string, traced *record) {
	pattern := fmt.Sprintf("%s-seed%d-trace0-*.json", traced.Workload, traced.Seed)
	paths, _ := filepath.Glob(filepath.Join(runs, pattern))
	var base *record
	for _, p := range paths {
		r, err := readRecord(p)
		if err == nil && r.Seconds == traced.Seconds && (base == nil || r.Started.After(base.Started)) {
			base = r
		}
	}
	fmt.Fprintf(w, "\ntracing overhead (vs the latest untraced %s run with seed %d and %d s):\n",
		traced.Workload, traced.Seed, traced.Seconds)
	if base == nil {
		fmt.Fprintf(w, "  no such run in %s: run --trace 0 with the same workload, seed and seconds first\n", runs)
		return
	}
	for _, d := range endToEndDefs {
		u, t := base.EndToEnd[d.Name], traced.EndToEnd[d.Name]
		delta := 0.0
		if u != 0 {
			delta = 100 * (t - u) / u
		}
		fmt.Fprintf(w, "  %-18s untraced %12.6g  traced %12.6g  %+7.1f%%\n", d.Name, u, t, delta)
	}
}

func readRecord(path string) (*record, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r record
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}
