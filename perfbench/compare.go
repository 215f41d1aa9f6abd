package main

// compare: judge two sets of run records against BENCHMARK.json's bounds.

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
)

// spec is the part of BENCHMARK.json compare reads.
type spec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// quartiles returns Q1, median and Q3 the way Python's
// statistics.quantiles(data, n=4) computes them (the "exclusive" method).
func quartiles(vs []float64) (q1, q2, q3 float64) {
	d := append([]float64(nil), vs...)
	sort.Float64s(d)
	n := len(d)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return d[0], d[0], d[0]
	}
	q := [3]float64{}
	m := n + 1
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		j = min(max(j, 1), n-1)
		delta := i*m - j*4
		q[i-1] = (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2]
}

// verdict judges change against parent for one metric. worse is the
// change's median shortfall as a share of the parent's; spread is the wider
// of the two sets' quartile distances relative to their medians.
func verdict(parent, change []float64, better string, bound float64) (v string, worse, spread float64) {
	_, mp, _ := quartiles(parent)
	_, mc, _ := quartiles(change)
	if mp == 0 {
		return "unresolved", 0, math.Inf(1)
	}
	worse = (mc - mp) / mp
	if better == "higher" {
		worse = -worse
	}
	spread = math.Max(relIQR(parent), relIQR(change))
	beats := func(c, p float64) bool {
		if better == "higher" {
			return c > p
		}
		return c < p
	}
	all := func(f func(c, p float64) bool) bool {
		for _, c := range change {
			for _, p := range parent {
				if !f(c, p) {
					return false
				}
			}
		}
		return true
	}
	switch {
	case spread > bound && all(beats):
		return "improved", worse, spread
	case spread > bound && all(func(c, p float64) bool { return beats(p, c) }):
		return "regressed", worse, spread
	case spread > bound:
		return "unresolved", worse, spread
	case worse > bound:
		return "regressed", worse, spread
	case -worse > bound:
		return "improved", worse, spread
	}
	return "agree", worse, spread
}

func relIQR(vs []float64) float64 {
	q1, q2, q3 := quartiles(vs)
	if q2 == 0 {
		return math.Inf(1)
	}
	return (q3 - q1) / math.Abs(q2)
}

// claim applies the paired rule for a gain: at least ten pairs (the i-th
// parent run with the i-th change run, in start order), the change wins at
// least nine tenths of them (ties count for neither), and the medians differ
// by more than the parent's quartile distance.
func claim(parent, change []float64, better string) (holds bool, wins, pairs int) {
	pairs = min(len(parent), len(change))
	for i := 0; i < pairs; i++ {
		c, p := change[i], parent[i]
		if (better == "higher" && c > p) || (better == "lower" && c < p) {
			wins++
		}
	}
	q1, mp, q3 := quartiles(parent)
	_, mc, _ := quartiles(change)
	gain := mc - mp
	if better == "lower" {
		gain = -gain
	}
	holds = pairs >= 10 && wins*10 >= 9*pairs && gain > q3-q1
	return holds, wins, pairs
}

// loadRecords reads untraced run records from a file or a directory of
// *.json files, grouped by workload and ordered by start time.
func loadRecords(path string) (map[string][]*record, error) {
	paths := []string{path}
	if fi, err := os.Stat(path); err != nil {
		return nil, err
	} else if fi.IsDir() {
		paths, _ = filepath.Glob(filepath.Join(path, "*.json"))
	}
	out := make(map[string][]*record)
	for _, p := range paths {
		r, err := readRecord(p)
		if err != nil {
			return nil, err
		}
		if !r.Trace && r.EndToEnd != nil {
			out[r.Workload] = append(out[r.Workload], r)
		}
	}
	for _, rs := range out {
		sort.Slice(rs, func(i, j int) bool { return rs[i].Started.Before(rs[j].Started) })
	}
	return out, nil
}

// specPath is the benchmark definition compare reads each metric's bound
// from, relative to the repository root it runs in.
const specPath = "BENCHMARK.json"

func compareMain(args []string, w io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: perfbench compare PARENT_RUNS CHANGE_RUNS (files or directories of run records)")
		return 2
	}
	data, err := os.ReadFile(specPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench compare:", err)
		return 2
	}
	var sp spec
	if err := json.Unmarshal(data, &sp); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench compare:", err)
		return 2
	}
	parent, err := loadRecords(args[0])
	if err == nil {
		var change map[string][]*record
		change, err = loadRecords(args[1])
		if err == nil {
			return compareSets(w, sp, parent, change)
		}
	}
	fmt.Fprintln(os.Stderr, "perfbench compare:", err)
	return 2
}

func compareSets(w io.Writer, sp spec, parent, change map[string][]*record) int {
	disagreements := 0
	fmt.Fprintf(w, "%-14s %-16s %5s %5s %28s %28s %8s %7s %-11s %s\n",
		"workload", "metric", "runs", "runs", "parent q1/median/q3", "change q1/median/q3", "worse", "bound", "verdict", "paired claim")
	for _, wl := range workloads {
		ps, cs := parent[wl.Name], change[wl.Name]
		if len(ps) == 0 || len(cs) == 0 {
			fmt.Fprintf(w, "%-14s (no runs in one of the sets)\n", wl.Name)
			disagreements++
			continue
		}
		for _, m := range sp.EndToEnd {
			pv, cv := metricValues(ps, m.Name), metricValues(cs, m.Name)
			v, worse, _ := verdict(pv, cv, m.Better, m.Bound)
			if v != "agree" {
				disagreements++
			}
			holds, wins, pairs := claim(pv, cv, m.Better)
			pq1, pq2, pq3 := quartiles(pv)
			cq1, cq2, cq3 := quartiles(cv)
			fmt.Fprintf(w, "%-14s %-16s %5d %5d %9.4g/%9.4g/%8.4g %9.4g/%9.4g/%8.4g %+7.1f%% %6.0f%% %-11s %v (%d/%d wins)\n",
				wl.Name, m.Name, len(pv), len(cv), pq1, pq2, pq3, cq1, cq2, cq3, 100*worse, 100*m.Bound, v, holds, wins, pairs)
		}
	}
	if disagreements > 0 {
		fmt.Fprintf(w, "%d workload x metric pairs do not agree\n", disagreements)
		return 1
	}
	return 0
}

func metricValues(rs []*record, name string) []float64 {
	out := make([]float64, 0, len(rs))
	for _, r := range rs {
		out = append(out, r.EndToEnd[name])
	}
	return out
}
