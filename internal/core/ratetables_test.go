package core

import (
	"math"
	"sync"
	"testing"

	"repro/internal/ctmc"
	"repro/internal/voting"
)

// TestRateTablesSizedToReachedKeys pins the store's voting-table extent:
// a model of a key the store has not seen gets a table of exactly N+1
// rows, row nGood of voteRowLen(nGood) slots in one array, which holds
// every composition the explored graph reaches and stays under half the
// (N+1)² square. A smaller N reads the same table; a larger N grows it
// into a new table that keeps the old rows and computes only the new ones.
func TestRateTablesSizedToReachedKeys(t *testing.T) {
	cfg := DefaultConfig()
	cfg.N = 40
	cfg.P1 = 0.0131 // a key no other test uses, so the table is fresh
	m, err := BuildModel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	g, err := m.Explore()
	if err != nil {
		t.Fatal(err)
	}
	if got := m.vote.extent(); got != cfg.N {
		t.Fatalf("voting table extent %d, want N = %d", got, cfg.N)
	}
	slots := 0
	for nGood, row := range m.vote.rows {
		if want := voteRowLen(nGood); len(row) != want || cap(row) != want {
			t.Fatalf("row nGood=%d: len %d cap %d, want %d", nGood, len(row), cap(row), want)
		}
		slots += len(row)
	}
	for _, mk := range g.States {
		if !m.alive(mk) || mk[m.tm]+mk[m.ucm] == 0 {
			continue
		}
		if nGood, nBad, _ := m.perGroup(mk); nBad >= voteRowLen(nGood) {
			t.Fatalf("reached composition (%d, %d) lies beyond its row", nGood, nBad)
		}
	}
	if square := (cfg.N + 1) * (cfg.N + 1); 2*slots > square {
		t.Errorf("voting table holds %d slots, over half the (N+1)² = %d square", slots, square)
	}

	built, _ := VoteTableStats()
	small := cfg
	small.N = 30
	ms, err := BuildModel(small)
	if err != nil {
		t.Fatal(err)
	}
	if ms.vote != m.vote {
		t.Error("a smaller N did not read the stored table")
	}
	large := cfg
	large.N = 50
	ml, err := BuildModel(large)
	if err != nil {
		t.Fatal(err)
	}
	if got := ml.vote.extent(); got != large.N {
		t.Fatalf("grown table extent %d, want %d", got, large.N)
	}
	for nGood, row := range m.vote.rows {
		if &ml.vote.rows[nGood][0] != &row[0] {
			t.Fatalf("grown table recomputed row nGood=%d", nGood)
		}
	}
	if after, _ := VoteTableStats(); after != built+1 {
		t.Errorf("reading at N=30 and growing to N=50 built %d tables, want 1", after-built)
	}
}

// TestVoteTableMatchesProbabilities pins the memoized fill, and the
// cluster-head closed forms, bitwise to voting.Params.Probabilities and
// the plain cluster-head functions over every slot of a table grown in
// two steps, for a single voter, panels at and far above the voter pool
// (M = 1<<30) and P1, P2 at 0 and 1.
func TestVoteTableMatchesProbabilities(t *testing.T) {
	probs := [][2]float64{{0, 0}, {0, 1}, {1, 0}, {1, 1}, {0.01, 0.01}, {0.3, 0.05}}
	for _, proto := range []Protocol{ProtocolVoting, ProtocolClusterHead} {
		for _, m := range []int{1, 2, 5, 9, 40, 1 << 30} {
			for _, pp := range probs {
				cfg := DefaultConfig()
				cfg.Protocol, cfg.M, cfg.P1, cfg.P2 = proto, m, pp[0], pp[1]
				key := voteKeyOf(cfg)
				tab := (*voteTable)(nil).grown(key, 25).grown(key, 60)
				params := voting.Params{M: m, P1: pp[0], P2: pp[1]}
				for nGood, row := range tab.rows {
					for nBad, got := range row {
						wantFN, wantFP := params.Probabilities(nGood, nBad)
						if proto == ProtocolClusterHead {
							wantFN = voting.ClusterHeadFalseNegative(nGood, nBad, pp[0])
							wantFP = voting.ClusterHeadFalsePositive(nGood, nBad, pp[1])
						}
						if math.Float64bits(got.pfn) != math.Float64bits(wantFN) ||
							math.Float64bits(got.pfp) != math.Float64bits(wantFP) {
							t.Fatalf("%v M=%d P=%v (%d good, %d bad): table (%v, %v), direct (%v, %v)",
								proto, m, pp, nGood, nBad, got.pfn, got.pfp, wantFN, wantFP)
						}
					}
				}
			}
		}
	}
}

// TestVoteTableCoversExploredKeys checks that no model of the
// explore-equivalence grid ever misses its frozen voting table (a miss is
// computed, not stored): every live state's composition is in the table,
// for the rate function and the cost pass alike.
func TestVoteTableCoversExploredKeys(t *testing.T) {
	for _, v := range refExploreGrid() {
		m, err := BuildModel(v.cfg)
		if err != nil {
			t.Fatal(err)
		}
		g, err := m.Explore()
		if err != nil {
			t.Fatal(err)
		}
		for _, mk := range g.States {
			if !m.alive(mk) || mk[m.tm]+mk[m.ucm] == 0 {
				continue
			}
			nGood, nBad, _ := m.perGroup(mk)
			if _, ok := m.vote.get(nGood, nBad); !ok {
				t.Errorf("%s: composition (%d, %d) of marking %v misses the voting table", v.name, nGood, nBad, mk)
			}
		}
	}
}

// storedVoteTable returns the table the store holds for key, or nil.
func storedVoteTable(key voteKey) *voteTable {
	voteTables.mu.Lock()
	defer voteTables.mu.Unlock()
	if el, ok := voteTables.entries[key]; ok {
		return el.Value.(*voteEntry).table
	}
	return nil
}

// TestVoteStoreBounded fills the store with more bytes of tables than it
// keeps and then asks for one table larger than its bound: the store never
// holds more than MaxVoteTableBytes, evicts the least recently used keys
// first, hands the oversized table to its caller without storing it or
// evicting anything for it, and rebuilds an evicted key on demand.
func TestVoteStoreBounded(t *testing.T) {
	cfg := DefaultConfig()
	keyOf := func(p1 float64) voteKey {
		c := cfg
		c.P1 = p1
		return voteKeyOf(c)
	}
	first := keyOf(0.0271)
	voteTables.table(first, 20)
	var last voteKey
	for i := 0; i < 12; i++ { // 12 tables of about 45 KiB each
		last = keyOf(0.5 + float64(i)/1000)
		voteTables.table(last, 100)
		if _, bytes := VoteTableStats(); bytes > MaxVoteTableBytes {
			t.Fatalf("store holds %d bytes, bound %d", bytes, MaxVoteTableBytes)
		}
	}
	if storedVoteTable(first) != nil {
		t.Fatal("the least recently used key survived twice the bound in newer tables")
	}
	resident := storedVoteTable(last)
	if resident == nil {
		t.Fatal("the most recently used key was evicted")
	}
	_, before := VoteTableStats()
	big := keyOf(0.0272)
	if tab := voteTables.table(big, 300); tab.extent() != 300 || tab.sizeBytes() <= MaxVoteTableBytes {
		t.Fatalf("oversized table: extent %d, %d bytes", tab.extent(), tab.sizeBytes())
	}
	if storedVoteTable(big) != nil {
		t.Error("the store kept a table over its byte bound")
	}
	if _, after := VoteTableStats(); after != before || storedVoteTable(last) != resident {
		t.Errorf("an oversized table changed the store: %d -> %d bytes, resident key held: %v",
			before, after, storedVoteTable(last) == resident)
	}
	built, _ := VoteTableStats()
	if tab := voteTables.table(first, 20); tab.extent() != 20 {
		t.Fatalf("rebuilt table extent %d", tab.extent())
	}
	if after, _ := VoteTableStats(); after != built+1 {
		t.Errorf("evicted key rebuilt %d times, want 1", after-built)
	}
}

// TestVoteStoreConcurrentGrowth has many goroutines build models of one
// key and of several keys at growing N, as the engine's workers do: every
// model reads a table covering its N whose every slot is bitwise the
// direct computation, and the store ends holding each key's largest
// table, whichever of the concurrent fills finished last. The race job
// repeats it.
func TestVoteStoreConcurrentGrowth(t *testing.T) {
	const workers = 8
	ns := []int{8, 12, 16, 20}
	keyCfg := func(w int, shared bool) Config {
		c := DefaultConfig()
		c.P1 = 0.0413
		if !shared {
			c.M = 3 + 2*(w%3)
		}
		return c
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, n := range ns {
				for _, shared := range []bool{true, false} {
					c := keyCfg(w, shared)
					c.N = n
					m, err := BuildModel(c)
					if err != nil {
						t.Error(err)
						return
					}
					if m.vote.extent() < n {
						t.Errorf("N=%d model got a table of extent %d", n, m.vote.extent())
						return
					}
					params := voting.Params{M: c.M, P1: c.P1, P2: c.P2}
					for nGood := 0; nGood <= n; nGood++ {
						for nBad := 0; nBad < voteRowLen(nGood); nBad++ {
							got, _ := m.vote.get(nGood, nBad)
							pfn, pfp := params.Probabilities(nGood, nBad)
							if got.pfn != pfn || got.pfp != pfp {
								t.Errorf("M=%d (%d, %d): table (%v, %v), direct (%v, %v)",
									c.M, nGood, nBad, got.pfn, got.pfp, pfn, pfp)
								return
							}
						}
					}
				}
			}
		}()
	}
	wg.Wait()
	for w := 0; w < 3; w++ { // keys M = 3, 5 and 7; the shared key is M = 5
		if got := storedVoteTable(voteKeyOf(keyCfg(w, false))).extent(); got != ns[len(ns)-1] {
			t.Errorf("M=%d: store holds a table of extent %d, want %d", keyCfg(w, false).M, got, ns[len(ns)-1])
		}
	}
}

// TestAnalyzeBelowOneVotingRow analyses configurations whose MaxStates is
// too small for even the first voting-table row: Validate rejects them
// (N+1 states cannot fit), so BuildModel and Analyze return errors rather
// than build a table or panic. The smallest MaxStates Validate accepts
// still gives its model a table, and its exploration ends in an error.
func TestAnalyzeBelowOneVotingRow(t *testing.T) {
	cfg := DefaultConfig()
	cfg.N = 10
	for _, maxStates := range []int{1, 2} {
		cfg.MaxStates = maxStates
		if err := cfg.Validate(); err == nil {
			t.Fatalf("MaxStates %d: Validate accepted N = %d", maxStates, cfg.N)
		}
		if _, err := BuildModel(cfg); err == nil {
			t.Errorf("MaxStates %d: BuildModel succeeded", maxStates)
		}
		if _, err := Analyze(cfg); err == nil {
			t.Errorf("MaxStates %d: Analyze succeeded", maxStates)
		}
	}
	cfg.MaxStates = cfg.N + 1
	m, err := BuildModel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if m.vote == nil {
		t.Fatalf("MaxStates %d: model holds no voting table", cfg.MaxStates)
	}
	if _, err := Analyze(cfg); err == nil {
		t.Errorf("MaxStates %d: Analyze succeeded", cfg.MaxStates)
	}
}

// TestRerateAndCostPassAllocateNothing pins the steady state of a patched
// point on an N = 40 session: the keyed re-rate (factor fill, edge rates
// and the per-key check) and the keyed sojourn-weighted cost pass
// allocate nothing.
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
		if err := pd.rerate(p.Model); err != nil {
			rerateErr = err
		}
	}); n != 0 {
		t.Errorf("keyed re-rate allocates %v per call, want 0", n)
	}
	if rerateErr != nil {
		t.Fatal(rerateErr)
	}
	var acc float64
	if n := testing.AllocsPerRun(10, func() {
		acc = p.patched.sojournCost(y).GC
	}); n != 0 {
		t.Errorf("cost pass allocates %v per call, want 0", n)
	}
	if !(acc > 0) {
		t.Fatalf("cost pass returned GC cost %v", acc)
	}
}

// TestSessionsShareDonorVotingTable has several sessions patch points off
// one donor while another goroutine analyses that donor: every patched
// model reads the store's table the donor reads, in place (no copy, no
// lock), and every answer is bitwise the full path's. The race job
// repeats it.
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
