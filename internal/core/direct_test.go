package core

import (
	"bytes"
	"math"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro/internal/ctmc"
	"repro/internal/linalg"
	"repro/internal/obs"
	"repro/internal/shapes"
)

// paperModelVariants are the detection architectures the direct-rung tests
// cover: the paper's m-voting, a host-based IDS (m = 1: each target judged
// by one host's own verdict), and the cluster-head comparator.
func paperModelVariants(n int) map[string]Config {
	voting := DefaultConfig()
	voting.N = n
	host := voting
	host.M = 1
	head := voting
	head.Protocol = ProtocolClusterHead
	return map[string]Config{"voting": voting, "host-based": host, "cluster-head": head}
}

// iterativeIters sums the iterations every iterative backend has spent.
func iterativeIters() uint64 {
	by := ctmc.SolveIterationsByBackend()
	return by[ctmc.BackendILUBiCGSTAB] + by[ctmc.BackendGMRES]
}

// TestAutoDirectRungOnPaperModels pins that auto solves of the paper's
// chains are answered by the exact block-triangular rung — no iterative
// backend spends an iteration and no fallback engages — and that the
// answer agrees with an explicit ilu-bicgstab solve to 1e-10 at every N and
// with dense LU to 1e-12 at N = 20.
func TestAutoDirectRungOnPaperModels(t *testing.T) {
	for _, n := range []int{20, 40, 60} {
		for name, cfg := range paperModelVariants(n) {
			cfg.Solver = ctmc.BackendAuto
			p, err := Prepare(cfg)
			if err != nil {
				t.Fatalf("N=%d %s: %v", n, name, err)
			}
			itersBefore, fallbacksBefore := iterativeIters(), ctmc.Fallbacks()
			sol, err := p.Solution()
			if err != nil {
				t.Fatalf("N=%d %s: %v", n, name, err)
			}
			if d := iterativeIters() - itersBefore; d != 0 {
				t.Errorf("N=%d %s: iterative backends spent %d iterations; the direct rung should have answered", n, name, d)
			}
			if d := ctmc.Fallbacks() - fallbacksBefore; d != 0 {
				t.Errorf("N=%d %s: %d fallbacks counted", n, name, d)
			}
			y := sol.SojournTimes()

			iluCfg := cfg
			iluCfg.Solver = ctmc.BackendILUBiCGSTAB
			ip, err := Prepare(iluCfg)
			if err != nil {
				t.Fatal(err)
			}
			isol, err := ip.Solution()
			if err != nil {
				t.Fatal(err)
			}
			assertSojournClose(t, y, isol.SojournTimes(), 1e-10, "N=%d %s vs ilu-bicgstab", n, name)
			if n == 20 {
				assertSojournClose(t, y, denseSojournReference(t, p), 1e-12, "N=%d %s vs dense LU", n, name)
			}
		}
	}
}

// assertSojournClose fails unless got and want agree entrywise to tol
// relative to the vector's scale.
func assertSojournClose(t *testing.T, got, want linalg.Vector, tol float64, format string, args ...any) {
	t.Helper()
	scale := 1 + want.NormInf()
	for i := range want {
		if d := math.Abs(got[i] - want[i]); d > tol*scale {
			t.Fatalf(format+": sojourn[%d] = %.17g, want %.17g (diff %g)", append(args, i, got[i], want[i], d)...)
		}
	}
}

// TestAnalyzeBitReproducible pins that repeated evaluations of one config
// return bit-identical Results, the absorption split included.
func TestAnalyzeBitReproducible(t *testing.T) {
	cfg := DefaultConfig()
	cfg.N = 20
	first, err := Analyze(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for rep := 1; rep < 20; rep++ {
		got, err := Analyze(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, first) {
			t.Fatalf("Analyze call %d differs from the first:\n got %+v\nwant %+v", rep, got, first)
		}
	}
}

// TestPatchedSensitivitiesMatchFullPrepare pins the value-patched chain's
// shared direct factorization: after PatchRates the next solve must
// refresh the factors, so the patched sojourn solve and the working
// chain's own forward-sensitivity solves stay on the direct rung (no
// iterative backend spends an iteration) and match a full prepare of the
// same point.
func TestPatchedSensitivitiesMatchFullPrepare(t *testing.T) {
	base := DefaultConfig()
	base.N = 15
	base.Solver = ctmc.BackendAuto
	donor, err := Prepare(base)
	if err != nil {
		t.Fatal(err)
	}
	pd, err := NewPreparedDelta(donor)
	if err != nil {
		t.Fatal(err)
	}
	for _, tids := range []float64{60, 240, 900} {
		cfg := base
		cfg.TIDS = tids
		itersBefore := iterativeIters()
		p, err := pd.Prepared(cfg)
		if err != nil {
			t.Fatal(err)
		}
		got, err := p.ForwardSensitivities(nil)
		if err != nil {
			t.Fatal(err)
		}
		if d := iterativeIters() - itersBefore; d != 0 {
			t.Errorf("TIDS=%g: iterative backends spent %d iterations on a patched point", tids, d)
		}
		full, err := Prepare(cfg)
		if err != nil {
			t.Fatal(err)
		}
		want, err := full.ForwardSensitivities(nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("TIDS=%g: %d sensitivities, want %d", tids, len(got), len(want))
		}
		for i := range want {
			if got[i].Param != want[i].Param ||
				math.Abs(got[i].DMTTSF-want[i].DMTTSF) > 1e-9*(1+math.Abs(want[i].DMTTSF)) {
				t.Fatalf("TIDS=%g: patched sensitivity %+v, full prepare %+v", tids, got[i], want[i])
			}
		}
	}
}

// directDeclines reads repro_solver_direct_declines_total from the /metrics
// exposition of the default registry, by reason.
func directDeclines(t *testing.T) map[string]float64 {
	t.Helper()
	var buf bytes.Buffer
	if err := obs.Default().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := map[string]float64{}
	for _, line := range strings.Split(buf.String(), "\n") {
		rest, ok := strings.CutPrefix(line, `repro_solver_direct_declines_total{reason="`)
		if !ok {
			continue
		}
		reason, value, ok := strings.Cut(rest, `"} `)
		if !ok {
			t.Fatalf("unparsable decline sample %q", line)
		}
		v, err := strconv.ParseFloat(value, 64)
		if err != nil {
			t.Fatal(err)
		}
		out[reason] = v
	}
	for _, reason := range []string{"scc_too_large", "singular", "stalled"} {
		if _, ok := out[reason]; !ok {
			t.Fatalf("/metrics has no repro_solver_direct_declines_total{reason=%q} series", reason)
		}
	}
	return out
}

// rateCorners enumerates the corners of the rate ranges the benchmark
// workloads draw from: N in {20, 25, 30, 40, 50, 60}, m in {3, 9}, TIDS in
// {5, 1200}, every detection and attacker shape, LambdaC scaled by 2^±1,
// P1 by 2^±1/2, and both protocols — 1728 models. With -short only every
// seventh is kept (7 is coprime to every axis length, so each value of
// each axis still appears).
func rateCorners() []Config {
	var out []Config
	for _, proto := range []Protocol{ProtocolVoting, ProtocolClusterHead} {
		for _, n := range []int{20, 25, 30, 40, 50, 60} {
			for _, m := range []int{3, 9} {
				for _, tids := range []float64{5, 1200} {
					for _, det := range shapes.Kinds() {
						for _, atk := range shapes.Kinds() {
							for _, lc := range []float64{0.5, 2} {
								for _, p1 := range []float64{math.Sqrt2 / 2, math.Sqrt2} {
									cfg := DefaultConfig()
									cfg.Protocol, cfg.N, cfg.M, cfg.TIDS = proto, n, m, tids
									cfg.Detection, cfg.Attacker = det, atk
									cfg.LambdaC *= lc
									cfg.P1 *= p1
									cfg.Solver = ctmc.BackendAuto
									out = append(out, cfg)
								}
							}
						}
					}
				}
			}
		}
	}
	if testing.Short() {
		thin := out[:0]
		for i := 0; i < len(out); i += 7 {
			thin = append(thin, out[i])
		}
		out = thin
	}
	return out
}

// TestPaperGridNeverDeclinesDirect pins that the exact direct solve answers
// every paper model: both protocols, N in {10, 20, 40, 60} (and 100 unless
// -short), one and four groups, all three detection shapes, and the
// explicit-eviction model at N <= 40, plus the benchmark workloads' rate
// corners (rateCorners), with no decline of any reason. "Singular" and
// "stalled" declines depend on rate values, not only on the pattern, so
// the corners are what licenses answering every workload point on the
// direct rung.
func TestPaperGridNeverDeclinesDirect(t *testing.T) {
	ns := []int{10, 20, 40, 60}
	if !testing.Short() {
		ns = append(ns, 100)
	}
	before := directDeclines(t)
	points := 0
	for _, proto := range []Protocol{ProtocolVoting, ProtocolClusterHead} {
		for _, n := range ns {
			for _, groups := range []int{1, 4} {
				for _, det := range []shapes.Kind{shapes.Logarithmic, shapes.Linear, shapes.Polynomial} {
					for _, explicit := range []bool{false, true} {
						if explicit && n > 40 {
							continue
						}
						cfg := DefaultConfig()
						cfg.Protocol, cfg.N, cfg.MaxGroups = proto, n, groups
						cfg.Detection, cfg.ExplicitEviction = det, explicit
						cfg.Solver = ctmc.BackendAuto
						if _, err := Analyze(cfg); err != nil {
							t.Fatalf("%v N=%d groups=%d %v explicit=%v: %v", proto, n, groups, det, explicit, err)
						}
						points++
					}
				}
			}
		}
	}
	for _, cfg := range rateCorners() {
		if _, err := Analyze(cfg); err != nil {
			t.Fatalf("%v N=%d m=%d TIDS=%g %v/%v LambdaC=%g P1=%g: %v", cfg.Protocol, cfg.N, cfg.M,
				cfg.TIDS, cfg.Detection, cfg.Attacker, cfg.LambdaC, cfg.P1, err)
		}
		points++
	}
	after := directDeclines(t)
	for reason, v := range after {
		if d := v - before[reason]; d != 0 {
			t.Errorf("%g direct-solve declines (%s) over %d paper models, want 0", d, reason, points)
		}
	}
}
