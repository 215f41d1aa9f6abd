// Package voting implements the majority-voting analysis of the paper's
// Equation 1: the false-positive probability Pfp (a healthy target node is
// evicted) and false-negative probability Pfn (a compromised target node is
// retained) of voting-based intrusion detection, as functions of
//
//   - the per-node host-based IDS error probabilities p1 (false negative)
//     and p2 (false positive),
//   - the number of vote participants m,
//   - and the current population of good and compromised (colluding) nodes.
//
// The model follows Section 4.1 of the paper: m voters are drawn uniformly
// without replacement from the N-1 nodes other than the target. A
// compromised voter always votes maliciously — against a good target (to
// evict healthy nodes) and for a bad target (to keep fellow attackers). A
// good voter errs independently with probability p2 against a good target
// and p1 for a bad target. The target is evicted iff at least
// Nmajority = floor(m/2)+1 of the m votes are negative.
package voting

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/combin"
)

// Params bundles the voting-IDS configuration.
type Params struct {
	M  int     // number of vote participants requested
	P1 float64 // per-node host IDS false-negative probability
	P2 float64 // per-node host IDS false-positive probability
}

// Validate checks parameter sanity.
func (p Params) Validate() error {
	if p.M < 1 {
		return fmt.Errorf("voting: m must be >= 1, got %d", p.M)
	}
	if p.P1 < 0 || p.P1 > 1 {
		return fmt.Errorf("voting: p1 = %v outside [0,1]", p.P1)
	}
	if p.P2 < 0 || p.P2 > 1 {
		return fmt.Errorf("voting: p2 = %v outside [0,1]", p.P2)
	}
	return nil
}

// Majority returns the strict-majority threshold for m voters:
// floor(m/2) + 1.
func Majority(m int) int { return m/2 + 1 }

// EffectiveM returns the number of voters actually used: the requested m
// capped by the pool of eligible voters. A smaller group simply votes with
// everyone available, as the protocol does in a partitioned mobile group.
func EffectiveM(pool, m int) int {
	if pool < m {
		return pool
	}
	return m
}

// FalsePositive returns Pfp: the probability that a *good* target node is
// evicted by a voting round, when the group currently holds nGood good
// members (including the target) and nBad undetected compromised members.
//
// Eviction requires >= Majority(m) negative votes; negative votes come from
// every compromised voter (collusion) and from good voters that err with
// probability p2.
func FalsePositive(nGood, nBad, m int, p2 float64) float64 {
	return falsePositive(nGood, nBad, m, evictFactor(p2))
}

// evictFactor returns FalsePositive's binomial factor for k compromised
// voters among an effective panel of m: the probability that the m-k good
// voters add the Majority(m)-k negative votes still needed.
func evictFactor(p2 float64) func(m, k int) float64 {
	return func(m, k int) float64 { return combin.BinomialTail(m-k, p2, Majority(m)-k) }
}

// falsePositive is FalsePositive with its binomial factor supplied by tail.
func falsePositive(nGood, nBad, m int, tail func(m, k int) float64) float64 {
	if nGood < 1 {
		return 0 // no good node exists to be falsely evicted
	}
	pool := (nGood - 1) + nBad
	m = EffectiveM(pool, m)
	if m < 1 {
		return 0 // nobody to vote: no eviction can happen
	}
	p := 0.0
	lo, hi := combin.HypergeomSupport(pool, nBad, m)
	for k := lo; k <= hi; k++ { // k compromised voters among the m
		hyp := combin.HypergeomPMF(pool, nBad, m, k)
		if hyp == 0 {
			continue
		}
		p += hyp * tail(m, k)
	}
	return combin.ClampProb(p)
}

// FalseNegative returns Pfn: the probability that a *compromised* target
// node survives a voting round, when the group holds nGood good members and
// nBad undetected compromised members (including the target).
//
// The target survives when negative votes fall short of Majority(m);
// negative votes come only from good voters that detect correctly with
// probability 1-p1 (compromised voters vote to keep the target).
func FalseNegative(nGood, nBad, m int, p1 float64) float64 {
	return falseNegative(nGood, nBad, m, keepFactor(p1))
}

// keepFactor returns FalseNegative's binomial factor for k compromised
// voters among an effective panel of m: negative votes come only from the
// m-k good voters, ~ Binomial(m-k, 1-p1), and the target is kept if they
// fall short of Majority(m).
func keepFactor(p1 float64) func(m, k int) float64 {
	return func(m, k int) float64 { return combin.BinomialCDF(m-k, 1-p1, Majority(m)-1) }
}

// falseNegative is FalseNegative with its binomial factor supplied by kept.
func falseNegative(nGood, nBad, m int, kept func(m, k int) float64) float64 {
	if nBad < 1 {
		return 0 // vacuous: no bad target exists
	}
	pool := nGood + (nBad - 1)
	m = EffectiveM(pool, m)
	if m < 1 {
		return 1 // nobody can vote: the bad node is trivially kept
	}
	p := 0.0
	lo, hi := combin.HypergeomSupport(pool, nBad-1, m)
	for k := lo; k <= hi; k++ { // k compromised voters among the m
		hyp := combin.HypergeomPMF(pool, nBad-1, m, k)
		if hyp == 0 {
			continue
		}
		p += hyp * kept(m, k)
	}
	return combin.ClampProb(p)
}

// Probabilities returns (Pfn, Pfp) for the given group composition under
// the parameters, the pair consumed by the SPN transitions T_IDS and T_FA.
func (p Params) Probabilities(nGood, nBad int) (pfn, pfp float64) {
	return FalseNegative(nGood, nBad, p.M, p.P1),
		FalsePositive(nGood, nBad, p.M, p.P2)
}

// Memo evaluates Probabilities for many group compositions under one
// Params. Each term of Equation 1's sums is a hypergeometric weight times
// a binomial factor that depends only on the effective panel size m and
// the number k of compromised voters among it, not on the composition, so
// Memo computes each factor once and reuses it for every composition.
// Its results are bitwise equal to Params.Probabilities: the same factors
// enter the same sums in the same order. The factor tables are indexed by
// the effective m, which is at most the voter pool, so their size follows
// the compositions asked for, never Params.M. Not safe for concurrent use.
type Memo struct {
	p           Params
	evict, keep factorTable
}

// NewMemo returns an empty Memo for p.
func NewMemo(p Params) *Memo {
	return &Memo{p: p, evict: factorTable{f: evictFactor(p.P2)}, keep: factorTable{f: keepFactor(p.P1)}}
}

// Probabilities returns (Pfn, Pfp) for the composition, as
// Params.Probabilities does.
func (c *Memo) Probabilities(nGood, nBad int) (pfn, pfp float64) {
	return falseNegative(nGood, nBad, c.p.M, c.keep.at),
		falsePositive(nGood, nBad, c.p.M, c.evict.at)
}

// factorTable memoizes f(m, k) for 0 <= k <= m, one row per effective m
// allocated on first use; NaN marks a slot not computed yet (f is a
// probability, never NaN).
type factorTable struct {
	f    func(m, k int) float64
	rows [][]float64
}

func (t *factorTable) at(m, k int) float64 {
	if m >= len(t.rows) {
		t.rows = append(t.rows, make([][]float64, m+1-len(t.rows))...)
	}
	row := t.rows[m]
	if row == nil {
		row = make([]float64, m+1)
		for i := range row {
			row[i] = math.NaN()
		}
		t.rows[m] = row
	}
	if v := row[k]; !math.IsNaN(v) {
		return v
	}
	v := t.f(m, k)
	row[k] = v
	return v
}

// FalseAlarm returns the combined false-alarm probability Pfp + Pfn used in
// the paper's discussion of the effect of m (Section 5, Figure 2).
func (p Params) FalseAlarm(nGood, nBad int) float64 {
	pfn, pfp := p.Probabilities(nGood, nBad)
	return pfn + pfp
}

// ClusterHeadFalsePositive returns Pfp for the cluster-head IDS
// architecture of the paper's related work ([1], [12], [14] in its
// bibliography): a single head node collects the evidence and decides
// alone. The head is a uniformly random group member; a compromised head
// evicts healthy nodes deliberately, a healthy head errs with p2.
func ClusterHeadFalsePositive(nGood, nBad int, p2 float64) float64 {
	if nGood < 1 {
		return 0
	}
	pool := (nGood - 1) + nBad // the target does not judge itself
	if pool < 1 {
		return 0
	}
	fracBad := float64(nBad) / float64(pool)
	return combin.ClampProb(fracBad + (1-fracBad)*p2)
}

// ClusterHeadFalseNegative returns Pfn for cluster-head IDS: a compromised
// head always keeps a compromised target; a healthy head misses with p1.
func ClusterHeadFalseNegative(nGood, nBad int, p1 float64) float64 {
	if nBad < 1 {
		return 0
	}
	pool := nGood + (nBad - 1)
	if pool < 1 {
		return 1
	}
	fracBad := float64(nBad-1) / float64(pool)
	return combin.ClampProb(fracBad + (1-fracBad)*p1)
}

// SimulateFalsePositive estimates Pfp by direct Monte Carlo simulation of
// the voting protocol: trials voting rounds on a good target. It exists to
// cross-validate the closed form against an independent implementation.
func SimulateFalsePositive(rng *rand.Rand, nGood, nBad, m int, p2 float64, trials int) float64 {
	if nGood < 1 {
		return 0
	}
	pool := (nGood - 1) + nBad
	m = EffectiveM(pool, m)
	if m < 1 {
		return 0
	}
	maj := Majority(m)
	voters := make([]int, pool) // 1 = compromised voter
	for i := 0; i < nBad; i++ {
		voters[i] = 1
	}
	evictions := 0
	for t := 0; t < trials; t++ {
		rng.Shuffle(pool, func(i, j int) { voters[i], voters[j] = voters[j], voters[i] })
		neg := 0
		for v := 0; v < m; v++ {
			if voters[v] == 1 || rng.Float64() < p2 {
				neg++
			}
		}
		if neg >= maj {
			evictions++
		}
	}
	return float64(evictions) / float64(trials)
}

// SimulateFalseNegative estimates Pfn by Monte Carlo simulation of voting
// rounds on a compromised target.
func SimulateFalseNegative(rng *rand.Rand, nGood, nBad, m int, p1 float64, trials int) float64 {
	if nBad < 1 {
		return 0
	}
	pool := nGood + (nBad - 1)
	m = EffectiveM(pool, m)
	if m < 1 {
		return 1
	}
	maj := Majority(m)
	voters := make([]int, pool)
	for i := 0; i < nBad-1; i++ {
		voters[i] = 1
	}
	kept := 0
	for t := 0; t < trials; t++ {
		rng.Shuffle(pool, func(i, j int) { voters[i], voters[j] = voters[j], voters[i] })
		neg := 0
		for v := 0; v < m; v++ {
			if voters[v] == 0 && rng.Float64() < 1-p1 {
				neg++
			}
		}
		if neg < maj {
			kept++
		}
	}
	return float64(kept) / float64(trials)
}
