package core

import (
	"math"
	"sync"
	"testing"

	"repro/internal/ctmc"
)

// TestRateTablesSizedToReachedKeys pins the voting table's extent after
// Explore: one row per nGood up to the largest reached, each row as long
// as the largest nBad reached with that nGood — not an (N+1)² square.
func TestRateTablesSizedToReachedKeys(t *testing.T) {
	cfg := DefaultConfig()
	cfg.N = 40
	m, err := BuildModel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	g, err := m.Explore()
	if err != nil {
		t.Fatal(err)
	}
	maxBad := map[int]int{}
	maxGood := -1
	for _, mk := range g.States {
		if !m.alive(mk) || mk[m.tm]+mk[m.ucm] == 0 {
			continue
		}
		nGood, nBad, _ := m.perGroup(mk)
		if b, ok := maxBad[nGood]; !ok || nBad > b {
			maxBad[nGood] = nBad
		}
		maxGood = max(maxGood, nGood)
	}
	if !m.vote.frozen {
		t.Fatal("Explore left the voting table writable")
	}
	if len(m.vote.rows) != maxGood+1 {
		t.Fatalf("voting table has %d rows, want %d", len(m.vote.rows), maxGood+1)
	}
	slots := 0
	for nGood, row := range m.vote.rows {
		want := 0
		if b, ok := maxBad[nGood]; ok {
			want = b + 1
		}
		if len(row) != want || cap(row) != want {
			t.Fatalf("row nGood=%d: len %d cap %d, want %d", nGood, len(row), cap(row), want)
		}
		slots += len(row)
	}
	if square := (cfg.N + 1) * (cfg.N + 1); 2*slots > square {
		t.Errorf("voting table holds %d slots, over half the (N+1)² = %d square", slots, square)
	}
}

// TestRerateAndCostPassAllocateNothing pins the steady state of a patched
// point on an N = 40 session: re-rating the graph and the sojourn-weighted
// cost pass allocate nothing.
func TestRerateAndCostPassAllocateNothing(t *testing.T) {
	cfg := DefaultConfig()
	cfg.N = 40
	cfg.Solver = ctmc.BackendAuto
	donor, err := Prepare(cfg)
	if err != nil {
		t.Fatal(err)
	}
	pd, err := NewPreparedDelta(donor)
	if err != nil {
		t.Fatal(err)
	}
	next := cfg
	next.TIDS *= 2.5
	p, err := pd.Prepared(next)
	if err != nil {
		t.Fatal(err)
	}
	sol, err := p.Solution()
	if err != nil {
		t.Fatal(err)
	}
	y := sol.SojournTimes()
	var rerateErr error
	if n := testing.AllocsPerRun(10, func() {
		if err := p.Graph.Rerate(); err != nil {
			rerateErr = err
		}
	}); n != 0 {
		t.Errorf("Graph.Rerate allocates %v per call, want 0", n)
	}
	if rerateErr != nil {
		t.Fatal(rerateErr)
	}
	var acc float64
	if n := testing.AllocsPerRun(10, func() {
		acc = p.Model.sojournCost(p.Graph, y).GC
	}); n != 0 {
		t.Errorf("cost pass allocates %v per call, want 0", n)
	}
	if !(acc > 0) {
		t.Fatalf("cost pass returned GC cost %v", acc)
	}
}

// TestSessionsShareDonorVotingTable has several sessions patch points off
// one donor while another goroutine analyses that donor: every session
// whose voting inputs match the donor's reads the donor's table in place
// (no copy, no lock), and every answer is bitwise the full path's. The
// race job repeats it.
func TestSessionsShareDonorVotingTable(t *testing.T) {
	cfg := DefaultConfig()
	cfg.N = 20
	cfg.Solver = ctmc.BackendAuto
	points := make([]Config, 6)
	want := make([]*Result, len(points))
	for i := range points {
		points[i] = cfg
		points[i].TIDS = cfg.TIDS * (0.5 + 0.4*float64(i))
		points[i].LambdaC = cfg.LambdaC * (1 + 0.1*float64(i%3))
		res, err := Analyze(points[i])
		if err != nil {
			t.Fatal(err)
		}
		want[i] = res
	}
	donor, err := Prepare(cfg)
	if err != nil {
		t.Fatal(err)
	}
	wantDonor, err := Analyze(cfg)
	if err != nil {
		t.Fatal(err)
	}

	const sessions = 3
	var wg sync.WaitGroup
	errs := make(chan string, sessions*len(points)+1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		res, err := donor.Analyze()
		if err != nil {
			errs <- err.Error()
			return
		}
		if math.Float64bits(res.MTTSF) != math.Float64bits(wantDonor.MTTSF) ||
			math.Float64bits(res.Ctotal) != math.Float64bits(wantDonor.Ctotal) {
			errs <- "donor answer differs from a fresh Analyze"
		}
	}()
	for s := 0; s < sessions; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			pd, err := NewPreparedDelta(donor)
			if err != nil {
				errs <- err.Error()
				return
			}
			for k := range points {
				i := (k + 2*s) % len(points)
				p, err := pd.Prepared(points[i])
				if err != nil {
					errs <- err.Error()
					return
				}
				if p.Model.vote != donor.Model.vote {
					errs <- "patched model does not read the donor's voting table"
				}
				got, err := p.Analyze()
				if err != nil {
					errs <- err.Error()
					return
				}
				if math.Float64bits(got.MTTSF) != math.Float64bits(want[i].MTTSF) ||
					math.Float64bits(got.Ctotal) != math.Float64bits(want[i].Ctotal) {
					errs <- "patched answer differs from a fresh Analyze"
				}
			}
		}(s)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}
