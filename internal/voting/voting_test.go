package voting

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func approx(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol
}

func TestMajority(t *testing.T) {
	cases := map[int]int{1: 1, 2: 2, 3: 2, 4: 3, 5: 3, 7: 4, 9: 5}
	for m, want := range cases {
		if got := Majority(m); got != want {
			t.Errorf("Majority(%d) = %d, want %d", m, got, want)
		}
	}
}

func TestEffectiveM(t *testing.T) {
	if got := EffectiveM(3, 5); got != 3 {
		t.Errorf("EffectiveM(3,5) = %d, want 3", got)
	}
	if got := EffectiveM(10, 5); got != 5 {
		t.Errorf("EffectiveM(10,5) = %d, want 5", got)
	}
}

func TestValidate(t *testing.T) {
	if err := (Params{M: 5, P1: 0.01, P2: 0.01}).Validate(); err != nil {
		t.Errorf("valid params rejected: %v", err)
	}
	bad := []Params{
		{M: 0, P1: 0.01, P2: 0.01},
		{M: 5, P1: -0.1, P2: 0.01},
		{M: 5, P1: 0.01, P2: 1.5},
	}
	for _, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("invalid params %+v accepted", p)
		}
	}
}

func TestNoAttackersPerfectDetectors(t *testing.T) {
	// With no compromised nodes and p2 = 0, a good node is never evicted.
	if got := FalsePositive(20, 0, 5, 0); got != 0 {
		t.Errorf("Pfp = %v, want 0", got)
	}
	// With p1 = 0 and no other attackers, a single bad target facing all
	// good voters is always detected.
	if got := FalseNegative(20, 1, 5, 0); got != 0 {
		t.Errorf("Pfn = %v, want 0", got)
	}
}

func TestAllVotersCompromised(t *testing.T) {
	// Pool made entirely of colluders: a good target is always evicted...
	if got := FalsePositive(1, 10, 5, 0); !approx(got, 1, 1e-12) {
		t.Errorf("Pfp = %v, want 1", got)
	}
	// ...and a bad target is always kept.
	if got := FalseNegative(0, 10, 5, 0); !approx(got, 1, 1e-12) {
		t.Errorf("Pfn = %v, want 1", got)
	}
}

func TestEmptyPoolConventions(t *testing.T) {
	// Single good node, no attackers: nobody can vote, no eviction.
	if got := FalsePositive(1, 0, 5, 0.5); got != 0 {
		t.Errorf("Pfp empty pool = %v, want 0", got)
	}
	// Single bad node, nobody else: trivially kept.
	if got := FalseNegative(0, 1, 5, 0.5); got != 1 {
		t.Errorf("Pfn empty pool = %v, want 1", got)
	}
	// Vacuous queries.
	if got := FalsePositive(0, 5, 3, 0.1); got != 0 {
		t.Errorf("Pfp with no good nodes = %v, want 0", got)
	}
	if got := FalseNegative(5, 0, 3, 0.1); got != 0 {
		t.Errorf("Pfn with no bad nodes = %v, want 0", got)
	}
}

func TestSingleVoterReducesToHostIDS(t *testing.T) {
	// m = 1 with an all-good pool: Pfp = p2 and Pfn = p1 exactly.
	p1, p2 := 0.07, 0.13
	if got := FalsePositive(50, 0, 1, p2); !approx(got, p2, 1e-12) {
		t.Errorf("Pfp(m=1) = %v, want %v", got, p2)
	}
	if got := FalseNegative(50, 1, 1, p1); !approx(got, p1, 1e-12) {
		t.Errorf("Pfn(m=1) = %v, want %v", got, p1)
	}
}

func TestHandComputedThreeVoters(t *testing.T) {
	// nGood=3 (target + 2 good voters), nBad=1, m=3: pool = 2 good + 1
	// bad, all three vote. Majority = 2. The bad voter always votes
	// against the good target, so eviction needs >= 1 erroneous negative
	// from the 2 good voters: Pfp = 1 - (1-p2)^2.
	p2 := 0.1
	want := 1 - (1-p2)*(1-p2)
	if got := FalsePositive(3, 1, 3, p2); !approx(got, want, 1e-12) {
		t.Errorf("Pfp = %v, want %v", got, want)
	}
	// Bad target, nGood=3, nBad=2, m=3: pool = 3 good + 1 bad; draws of
	// the bad co-voter: k=1 w.p. C(1,1)C(3,2)/C(4,3)=3/4, k=0 w.p. 1/4.
	// k=1: negatives ~ Binom(2, 1-p1), kept if < 2.
	// k=0: negatives ~ Binom(3, 1-p1), kept if < 2.
	p1 := 0.2
	q := 1 - p1
	pk1 := 1 - q*q                               // < 2 successes out of 2
	pk0 := math.Pow(p1, 3) + 3*q*math.Pow(p1, 2) // 0 or 1 success of 3
	want = 0.75*pk1 + 0.25*pk0
	if got := FalseNegative(3, 2, 3, p1); !approx(got, want, 1e-12) {
		t.Errorf("Pfn = %v, want %v", got, want)
	}
}

func TestProbabilitiesInRangeProperty(t *testing.T) {
	f := func(g, b, mRaw uint8, p1Raw, p2Raw float64) bool {
		nGood := int(g % 60)
		nBad := int(b % 60)
		m := int(mRaw%12) + 1
		p1 := math.Abs(p1Raw)
		p1 -= math.Floor(p1)
		p2 := math.Abs(p2Raw)
		p2 -= math.Floor(p2)
		pfn := FalseNegative(nGood, nBad, m, p1)
		pfp := FalsePositive(nGood, nBad, m, p2)
		return pfn >= 0 && pfn <= 1 && pfp >= 0 && pfp <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestMonotoneInErrorProbability(t *testing.T) {
	// Pfp grows with p2; Pfn grows with p1 (more host-IDS error, more
	// voting error), for a fixed composition.
	nGood, nBad, m := 30, 4, 5
	prevFP, prevFN := -1.0, -1.0
	for _, p := range []float64{0, 0.01, 0.05, 0.1, 0.3, 0.6, 1} {
		fp := FalsePositive(nGood, nBad, m, p)
		fn := FalseNegative(nGood, nBad, m, p)
		if fp < prevFP-1e-12 {
			t.Errorf("Pfp not monotone at p=%v: %v < %v", p, fp, prevFP)
		}
		if fn < prevFN-1e-12 {
			t.Errorf("Pfn not monotone at p=%v: %v < %v", p, fn, prevFN)
		}
		prevFP, prevFN = fp, fn
	}
}

func TestMoreVotersReduceFalseAlarmUnderCollusion(t *testing.T) {
	// The paper's Figure 2 rationale: with a minority of colluders, a
	// larger odd m lowers Pfp + Pfn.
	nGood, nBad := 30, 4
	p := Params{P1: 0.01, P2: 0.01}
	prev := math.Inf(1)
	for _, m := range []int{1, 3, 5, 7, 9} {
		p.M = m
		fa := p.FalseAlarm(nGood, nBad)
		if fa > prev+1e-12 {
			t.Errorf("false alarm not decreasing at m=%d: %v > %v", m, fa, prev)
		}
		prev = fa
	}
}

func TestCollusionIncreasesError(t *testing.T) {
	// Adding compromised nodes to the pool must not decrease Pfp or Pfn.
	m := 5
	prevFP, prevFN := -1.0, -1.0
	for nBad := 0; nBad <= 10; nBad++ {
		fp := FalsePositive(20, nBad, m, 0.01)
		if fp < prevFP-1e-12 {
			t.Errorf("Pfp decreased when adding colluder %d: %v < %v", nBad, fp, prevFP)
		}
		prevFP = fp
	}
	for nBad := 1; nBad <= 10; nBad++ {
		fn := FalseNegative(20, nBad, m, 0.01)
		if fn < prevFN-1e-12 {
			t.Errorf("Pfn decreased when adding colluder %d: %v < %v", nBad, fn, prevFN)
		}
		prevFN = fn
	}
}

func TestClosedFormMatchesMonteCarlo(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	trials := 200000
	cases := []struct {
		nGood, nBad, m int
		p              float64
	}{
		{20, 3, 5, 0.05},
		{10, 5, 7, 0.01},
		{8, 2, 3, 0.2},
		{4, 3, 9, 0.1}, // m capped by pool
	}
	for _, c := range cases {
		want := FalsePositive(c.nGood, c.nBad, c.m, c.p)
		got := SimulateFalsePositive(rng, c.nGood, c.nBad, c.m, c.p, trials)
		if math.Abs(got-want) > 0.005 {
			t.Errorf("Pfp(%+v): closed form %v vs MC %v", c, want, got)
		}
		want = FalseNegative(c.nGood, c.nBad, c.m, c.p)
		got = SimulateFalseNegative(rng, c.nGood, c.nBad, c.m, c.p, trials)
		if math.Abs(got-want) > 0.005 {
			t.Errorf("Pfn(%+v): closed form %v vs MC %v", c, want, got)
		}
	}
}

func TestClusterHeadProbabilities(t *testing.T) {
	// No compromised nodes: pure host-IDS error rates.
	if got := ClusterHeadFalsePositive(20, 0, 0.02); !approx(got, 0.02, 1e-12) {
		t.Errorf("CH Pfp clean group = %v, want p2", got)
	}
	if got := ClusterHeadFalseNegative(20, 1, 0.03); !approx(got, 0.03, 1e-12) {
		t.Errorf("CH Pfn lone attacker = %v, want p1", got)
	}
	// Half the candidate heads compromised: errors dominated by the
	// subverted-head case.
	pfp := ClusterHeadFalsePositive(11, 10, 0.01) // pool 10 good + 10 bad
	if !approx(pfp, 0.5+0.5*0.01, 1e-12) {
		t.Errorf("CH Pfp half-bad = %v", pfp)
	}
	pfn := ClusterHeadFalseNegative(10, 11, 0.01)
	if !approx(pfn, 0.5+0.5*0.01, 1e-12) {
		t.Errorf("CH Pfn half-bad = %v", pfn)
	}
	// Degenerate pools.
	if got := ClusterHeadFalsePositive(1, 0, 0.5); got != 0 {
		t.Errorf("CH Pfp empty pool = %v", got)
	}
	if got := ClusterHeadFalseNegative(0, 1, 0.5); got != 1 {
		t.Errorf("CH Pfn empty pool = %v", got)
	}
	if got := ClusterHeadFalsePositive(0, 5, 0.5); got != 0 {
		t.Errorf("CH Pfp no good nodes = %v", got)
	}
	if got := ClusterHeadFalseNegative(5, 0, 0.5); got != 0 {
		t.Errorf("CH Pfn no bad nodes = %v", got)
	}
}

func TestClusterHeadWorseThanVotingUnderCollusion(t *testing.T) {
	// The reason the paper chooses voting: with colluders present, a
	// majority panel suppresses the single-point-of-subversion risk.
	nGood, nBad := 20, 4
	p1, p2 := 0.01, 0.01
	if ch, vote := ClusterHeadFalsePositive(nGood, nBad, p2), FalsePositive(nGood, nBad, 5, p2); ch <= vote {
		t.Errorf("CH Pfp %v not worse than voting %v", ch, vote)
	}
	if ch, vote := ClusterHeadFalseNegative(nGood, nBad, p1), FalseNegative(nGood, nBad, 5, p1); ch <= vote {
		t.Errorf("CH Pfn %v not worse than voting %v", ch, vote)
	}
}

func TestProbabilitiesPair(t *testing.T) {
	p := Params{M: 5, P1: 0.02, P2: 0.03}
	pfn, pfp := p.Probabilities(25, 3)
	if pfn != FalseNegative(25, 3, 5, 0.02) {
		t.Error("Probabilities pfn mismatch")
	}
	if pfp != FalsePositive(25, 3, 5, 0.03) {
		t.Error("Probabilities pfp mismatch")
	}
}

// TestMemoMatchesProbabilities pins Memo bitwise to Params.Probabilities
// over a composition grid, including a single voter, panels at or above
// the voter pool (M = 1<<30 votes with everyone) and P1, P2 at 0 and 1.
// One Memo serves each parameter set's whole grid, so later compositions
// read factors that earlier ones computed.
func TestMemoMatchesProbabilities(t *testing.T) {
	probs := [][2]float64{{0, 1}, {1, 0}, {0.01, 0.01}, {0.37, 0}, {1, 1}, {0.2, 0.6}}
	for _, m := range []int{1, 2, 5, 9, 40, 1 << 30} {
		for _, pp := range probs {
			p := Params{M: m, P1: pp[0], P2: pp[1]}
			memo := NewMemo(p)
			for nGood := 0; nGood <= 60; nGood++ {
				for nBad := 0; nBad <= 40; nBad++ {
					gotFN, gotFP := memo.Probabilities(nGood, nBad)
					wantFN, wantFP := p.Probabilities(nGood, nBad)
					if math.Float64bits(gotFN) != math.Float64bits(wantFN) ||
						math.Float64bits(gotFP) != math.Float64bits(wantFP) {
						t.Fatalf("%+v (%d good, %d bad): memo (%v, %v), plain (%v, %v)",
							p, nGood, nBad, gotFN, gotFP, wantFN, wantFP)
					}
				}
			}
		}
	}
}

// BenchmarkVoteTableFill fills a voting table the way core does, every
// composition with nGood <= N and nBad <= nGood/2+1, through one Memo
// against plain Params.Probabilities.
func BenchmarkVoteTableFill(b *testing.B) {
	p := Params{M: 5, P1: 0.01, P2: 0.01}
	fill := func(n int, probs func(nGood, nBad int) (float64, float64)) (s float64) {
		for nGood := 0; nGood <= n; nGood++ {
			for nBad := 0; nBad <= nGood/2+1; nBad++ {
				pfn, pfp := probs(nGood, nBad)
				s += pfn + pfp
			}
		}
		return s
	}
	for _, n := range []int{40, 100} {
		b.Run(fmt.Sprintf("N=%d/plain", n), func(b *testing.B) {
			for b.Loop() {
				fill(n, p.Probabilities)
			}
		})
		b.Run(fmt.Sprintf("N=%d/memo", n), func(b *testing.B) {
			for b.Loop() {
				fill(n, NewMemo(p).Probabilities)
			}
		})
	}
}
