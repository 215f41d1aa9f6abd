package main

import (
	"context"
	"encoding/json"
	"io"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/ctmc"
	"repro/internal/engine"
	"repro/internal/shapes"
)

func TestInputDigestDependsOnlyOnSeed(t *testing.T) {
	for _, w := range workloads {
		a, b, c := w.digest(1), w.digest(1), w.digest(2)
		if a != b {
			t.Errorf("%s: seed 1 gave digests %s and %s", w.Name, a, b)
		}
		if a == c {
			t.Errorf("%s: seeds 1 and 2 gave the same digest %s", w.Name, a)
		}
	}
}

// TestWorkloadsRunClean runs every workload for a second, untraced and
// traced: two clients share each workload's generators, tallies and
// servers, so run it under -race.
func TestWorkloadsRunClean(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	t.Chdir(t.TempDir())
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			rec, err := run(w, 7, 1, traced, io.Discard)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
			}
			defs := endToEndDefs
			if traced {
				defs = perLayerDefs
			}
			if !rec.Result.Correct || rec.Result.Attempted < 1 || len(rec.Result.Metrics) != len(defs) {
				t.Errorf("%s traced=%v: correct=%v attempted=%d, %d of %d metrics",
					w.Name, traced, rec.Result.Correct, rec.Result.Attempted, len(rec.Result.Metrics), len(defs))
			}
		}
	}
}

// TestTracedEvalMatchesPrepare pins the traced prepare, which repeats
// core.Prepare's steps in order to time each, to core.Prepare + Analyze: a
// change to either shows here instead of as traced runs quietly measuring
// another path.
func TestTracedEvalMatchesPrepare(t *testing.T) {
	tr := newTracer()
	for _, solver := range []string{"", ctmc.BackendGMRES, ctmc.BackendILUBiCGSTAB} {
		for _, n := range []int{20, 30} {
			cfg := core.DefaultConfig()
			cfg.N, cfg.Solver = n, solver
			p, err := core.Prepare(cfg)
			if err != nil {
				t.Fatal(err)
			}
			want, err := p.Analyze()
			if err != nil {
				t.Fatal(err)
			}
			got, err := tr.eval(context.Background(), engine.New(engine.Options{}), cfg, "")
			if err != nil {
				t.Fatalf("N=%d solver=%q: traced eval: %v", n, solver, err)
			}
			// Exact except the absorption split, which the program sums in
			// map order (see split).
			if got.Config != want.Config || !printOf(want).matches(got) {
				t.Errorf("N=%d solver=%q: traced eval differs from core.Prepare + Analyze", n, solver)
			}
		}
	}
}

func TestBlocksHoldEveryValueOnce(t *testing.T) {
	b := newBlocks(newRand(7, streamOps), 20, 30, 40)
	for block := 0; block < 50; block++ {
		seen := map[int]bool{}
		for i := 0; i < 3; i++ {
			seen[b.next()] = true
		}
		if len(seen) != 3 {
			t.Fatalf("block %d drew %v", block, seen)
		}
	}
}

// bump returns v moved by one unit in the last place.
func bump(v float64) float64 { return math.Nextafter(v, math.Inf(1)) }

// corruptions returns copies of r with one value field changed each: every
// float by one ulp, every int by one, nested structs included.
func corruptions(r core.Result) map[string]core.Result {
	out := map[string]core.Result{}
	t := reflect.TypeOf(r)
	for i := 0; i < t.NumField(); i++ {
		collect(out, r, t.Field(i).Name, []int{i})
	}
	return out
}

// collect adds one corrupted copy of r per scalar leaf under index path idx.
func collect(out map[string]core.Result, r core.Result, name string, idx []int) {
	c := r
	leaf := reflect.ValueOf(&c).Elem().FieldByIndex(idx)
	switch leaf.Kind() {
	case reflect.Float64:
		leaf.SetFloat(bump(leaf.Float()))
		out[name] = c
	case reflect.Int:
		leaf.SetInt(leaf.Int() + 1)
		out[name] = c
	case reflect.Struct:
		for j := 0; j < leaf.NumField(); j++ {
			collect(out, r, name+"."+leaf.Type().Field(j).Name, append(append([]int(nil), idx...), j))
		}
	}
}

func TestCorruptedReferenceIsDetected(t *testing.T) {
	if n := reflect.TypeOf(core.Result{}).NumField(); n != resultFields {
		t.Fatalf("core.Result has %d fields, sameResult compares %d: extend the check", n, resultFields)
	}
	cfg := core.DefaultConfig()
	cfg.N = 20
	ref, err := core.Analyze(cfg)
	if err != nil {
		t.Fatal(err)
	}
	got := *ref
	first := printOf(ref)
	if !sameResult(&got, ref) || !first.matches(&got) {
		t.Fatal("an unchanged copy does not match its reference")
	}

	fields := corruptions(*ref)
	if len(fields) < 20 {
		t.Fatalf("only %d value fields found to corrupt", len(fields))
	}
	split := map[string]bool{"ProbC1": true, "ProbC2": true, "ProbDepleted": true}
	for name, bad := range fields {
		if sameResult(&bad, ref) {
			t.Errorf("sameResult misses a one-ulp change in %s", name)
		}
		if !split[name] && !strings.HasPrefix(name, "Config.") && first.matches(&bad) {
			t.Errorf("the repeat check misses a one-ulp change in %s", name)
		}
	}
	// The absorption split may differ in its last bits between solves, but
	// not by more than relTol.
	bad := *ref
	bad.ProbC1 = bump(bad.ProbC1)
	if !first.matches(&bad) {
		t.Error("the repeat check rejects a one-ulp change in the absorption split")
	}
	bad.ProbC1 = ref.ProbC1 * (1 + 1e-6)
	if first.matches(&bad) {
		t.Error("the repeat check accepts a 1e-6 change in the absorption split")
	}

	off := *ref
	off.MTTSF *= 1 + 1e-8
	if closeResult(&off, ref) {
		t.Error("closeResult accepts a 1e-8 relative change in MTTSF")
	}
	off = *ref
	off.Ctotal *= 1 + 1e-12
	if !closeResult(&off, ref) {
		t.Error("closeResult rejects a 1e-12 relative change in Ctotal")
	}
}

func TestFrontierCheckDetectsChanges(t *testing.T) {
	want := []core.DesignPoint{
		{M: 3, TIDS: 5, Detection: shapes.Linear, MTTSF: 1e5, Ctotal: 10},
		{M: 5, TIDS: 60, Detection: shapes.Linear, MTTSF: 2e5, Ctotal: 20},
	}
	got := append([]core.DesignPoint(nil), want...)
	if !sameFrontier(got, want) {
		t.Fatal("identical frontiers differ")
	}
	got[1].MTTSF = bump(got[1].MTTSF)
	if sameFrontier(got, want) {
		t.Error("a one-ulp MTTSF change went unnoticed")
	}
	if sameFrontier(want[:1], want) {
		t.Error("a missing frontier point went unnoticed")
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	q1, q2, q3 = quartiles([]float64{4, 1, 2})
	if q1 != 1 || q2 != 2 || q3 != 4 {
		t.Errorf("quartiles = %v %v %v, want 1 2 4", q1, q2, q3)
	}
}

func TestVerdictAndClaim(t *testing.T) {
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scaled := func(f float64) []float64 {
		out := make([]float64, len(base))
		for i, v := range base {
			out[i] = v * f
		}
		return out
	}
	cases := []struct {
		change []float64
		better string
		want   string
	}{
		{scaled(1.02), "lower", "agree"},
		{scaled(1.20), "lower", "regressed"},
		{scaled(1.20), "higher", "improved"},
		{[]float64{50, 150, 60, 140, 100, 100, 70, 130, 90, 110}, "lower", "unresolved"},
	}
	for _, c := range cases {
		if got, _, _ := verdict(base, c.change, c.better, 0.10); got != c.want {
			t.Errorf("verdict(%v, %s) = %s, want %s", c.change, c.better, got, c.want)
		}
	}
	if holds, wins, pairs := claim(base, scaled(0.9), "lower"); !holds || wins != 10 || pairs != 10 {
		t.Errorf("claim of a 10%% cut: holds=%v wins=%d/%d", holds, wins, pairs)
	}
	if holds, _, _ := claim(base[:9], scaled(0.9)[:9], "lower"); holds {
		t.Error("claim holds on nine pairs")
	}
	if holds, _, _ := claim(base, scaled(1.001), "higher"); holds {
		t.Error("claim holds on a gain inside the parent's spread")
	}
}

func TestBenchmarkJSONMatchesDefs(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name, Why string
		} `json:"workloads"`
		EndToEnd []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if b.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, defaultSeconds %d", b.RunSeconds, defaultSeconds)
	}
	if !reflect.DeepEqual(b.Command, []string{"bash", "perfbench/run.sh"}) || !reflect.DeepEqual(b.Paths, []string{"perfbench"}) {
		t.Errorf("command %q, paths %q: want bash perfbench/run.sh over perfbench", b.Command, b.Paths)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d defined", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.Name || b.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, defs have %s: %s", i, b.Workloads[i], w.Name, w.Why)
		}
	}
	if len(b.EndToEnd) != len(endToEndDefs) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d defined", len(b.EndToEnd), len(endToEndDefs))
	}
	for i, d := range endToEndDefs {
		m := b.EndToEnd[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("end-to-end %d: BENCHMARK.json %+v, defs %+v", i, m, d)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if len(b.PerLayer) != len(perLayerDefs) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d defined", len(b.PerLayer), len(perLayerDefs))
	}
	for i, d := range perLayerDefs {
		m := b.PerLayer[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per-layer %d: BENCHMARK.json %+v, defs %+v", i, m, d)
		}
	}
}
