package ctmc

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/linalg"
	"repro/internal/spn"
)

func approx(a, b, tol float64) bool {
	if a == b {
		return true
	}
	d := math.Abs(a - b)
	if d <= tol {
		return true
	}
	return d <= tol*math.Max(math.Abs(a), math.Abs(b))
}

// chainFromEdges builds a chain from (from, to, rate) triples over n states.
func chainFromEdges(n int, edges [][3]float64) *Chain {
	b := linalg.NewSparseBuilder(n, n)
	exit := make([]float64, n)
	for _, e := range edges {
		i, j, r := int(e[0]), int(e[1]), e[2]
		b.Add(i, j, r)
		exit[i] += r
	}
	for i := 0; i < n; i++ {
		if exit[i] > 0 {
			b.Add(i, i, -exit[i])
		}
	}
	c, err := NewChain(b.Build())
	if err != nil {
		panic(err)
	}
	return c
}

func TestMTTASingleExponential(t *testing.T) {
	lambda := 0.37
	c := chainFromEdges(2, [][3]float64{{0, 1, lambda}})
	got, err := c.MeanTimeToAbsorption(0)
	if err != nil {
		t.Fatal(err)
	}
	if !approx(got, 1/lambda, 1e-10) {
		t.Errorf("MTTA = %v, want %v", got, 1/lambda)
	}
}

func TestMTTAPureDeathChain(t *testing.T) {
	// States k = 5..0 with death rate k*mu: MTTA from 5 is (1/mu) * H_5.
	mu := 2.0
	n := 6
	var edges [][3]float64
	for k := 1; k < n; k++ {
		edges = append(edges, [3]float64{float64(k), float64(k - 1), float64(k) * mu})
	}
	c := chainFromEdges(n, edges)
	want := 0.0
	for k := 1; k < n; k++ {
		want += 1 / (float64(k) * mu)
	}
	got, err := c.MeanTimeToAbsorption(n - 1)
	if err != nil {
		t.Fatal(err)
	}
	if !approx(got, want, 1e-10) {
		t.Errorf("MTTA = %v, want %v (harmonic)", got, want)
	}
}

func TestMTTAFromAbsorbingStateIsZero(t *testing.T) {
	c := chainFromEdges(2, [][3]float64{{0, 1, 1}})
	got, err := c.MeanTimeToAbsorption(1)
	if err != nil {
		t.Fatal(err)
	}
	if got != 0 {
		t.Errorf("MTTA from absorbing state = %v, want 0", got)
	}
}

func TestMTTANoAbsorbingError(t *testing.T) {
	c := chainFromEdges(2, [][3]float64{{0, 1, 1}, {1, 0, 1}})
	if _, err := c.MeanTimeToAbsorption(0); err == nil {
		t.Fatal("expected error for chain without absorbing states")
	}
}

func TestAbsorptionProbabilitiesCompetingRisks(t *testing.T) {
	alpha, beta := 0.3, 1.2
	c := chainFromEdges(3, [][3]float64{{0, 1, alpha}, {0, 2, beta}})
	probs, err := c.AbsorptionProbabilities(0)
	if err != nil {
		t.Fatal(err)
	}
	if !approx(probs[1], alpha/(alpha+beta), 1e-10) {
		t.Errorf("P(absorb 1) = %v, want %v", probs[1], alpha/(alpha+beta))
	}
	if !approx(probs[2], beta/(alpha+beta), 1e-10) {
		t.Errorf("P(absorb 2) = %v, want %v", probs[2], beta/(alpha+beta))
	}
	mtta, err := c.MeanTimeToAbsorption(0)
	if err != nil {
		t.Fatal(err)
	}
	if !approx(mtta, 1/(alpha+beta), 1e-10) {
		t.Errorf("MTTA = %v, want %v", mtta, 1/(alpha+beta))
	}
}

func TestAbsorptionProbabilitiesSumToOne(t *testing.T) {
	// Random layered absorbing chains: forward edges only, guaranteeing
	// absorption. Check sum of absorption probabilities is 1.
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 25; trial++ {
		n := 4 + rng.Intn(20)
		var edges [][3]float64
		for i := 0; i < n-2; i++ {
			outs := 1 + rng.Intn(3)
			for e := 0; e < outs; e++ {
				j := i + 1 + rng.Intn(n-i-1)
				edges = append(edges, [3]float64{float64(i), float64(j), 0.1 + rng.Float64()})
			}
		}
		c := chainFromEdges(n, edges)
		probs, err := c.AbsorptionProbabilities(0)
		if err != nil {
			t.Fatal(err)
		}
		s := 0.0
		for _, p := range probs {
			s += p
		}
		if !approx(s, 1, 1e-9) {
			t.Fatalf("trial %d: absorption probabilities sum %v", trial, s)
		}
	}
}

func TestAccumulatedReward(t *testing.T) {
	// Tandem: 0 ->(a) 1 ->(b) 2(abs). Reward 3 in state 0, 5 in state 1.
	a, b := 0.5, 0.25
	c := chainFromEdges(3, [][3]float64{{0, 1, a}, {1, 2, b}})
	reward := linalg.Vector{3, 5, 100} // reward in absorbing state must not count
	got, err := c.AccumulatedReward(0, reward)
	if err != nil {
		t.Fatal(err)
	}
	want := 3/a + 5/b
	if !approx(got, want, 1e-10) {
		t.Errorf("AccumulatedReward = %v, want %v", got, want)
	}
}

func TestSojournTimesTandem(t *testing.T) {
	c := chainFromEdges(3, [][3]float64{{0, 1, 2}, {1, 2, 4}})
	y, err := c.SojournTimes(0)
	if err != nil {
		t.Fatal(err)
	}
	if !approx(y[0], 0.5, 1e-10) || !approx(y[1], 0.25, 1e-10) || y[2] != 0 {
		t.Errorf("sojourn = %v, want [0.5 0.25 0]", y)
	}
}

func TestExpectedRewardAllStartsMatchesPerStart(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	n := 12
	var edges [][3]float64
	for i := 0; i < n-1; i++ {
		edges = append(edges, [3]float64{float64(i), float64(i + 1), 0.2 + rng.Float64()})
		if i > 0 {
			edges = append(edges, [3]float64{float64(i), float64(i - 1), 0.1 + 0.3*rng.Float64()})
		}
	}
	c := chainFromEdges(n, edges)
	ones := linalg.ConstVector(n, 1)
	w, err := c.ExpectedRewardAllStarts(ones)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n-1; i++ {
		mtta, err := c.MeanTimeToAbsorption(i)
		if err != nil {
			t.Fatal(err)
		}
		if !approx(w[i], mtta, 1e-8) {
			t.Errorf("state %d: all-starts %v vs per-start %v", i, w[i], mtta)
		}
	}
	if w[n-1] != 0 {
		t.Errorf("absorbing state reward %v, want 0", w[n-1])
	}
}

func TestMTTAMatchesDenseFundamentalMatrix(t *testing.T) {
	// Cross-check the sparse solve against the N = (-Q_TT)^{-1} dense
	// computation on a random absorbing chain with back edges.
	rng := rand.New(rand.NewSource(17))
	n := 15
	var edges [][3]float64
	for i := 0; i < n-1; i++ {
		edges = append(edges, [3]float64{float64(i), float64(i + 1), 0.5 + rng.Float64()})
		j := rng.Intn(n - 1)
		if j != i {
			edges = append(edges, [3]float64{float64(i), float64(j), 0.2 * rng.Float64()})
		}
	}
	c := chainFromEdges(n, edges)
	// Dense fundamental-matrix MTTA.
	sub := c.subGenerator().Dense()
	nt := sub.Rows
	negQ := linalg.NewDense(nt, nt)
	for i := 0; i < nt; i++ {
		for j := 0; j < nt; j++ {
			negQ.Set(i, j, -sub.At(i, j))
		}
	}
	fund, err := linalg.Inverse(negQ)
	if err != nil {
		t.Fatal(err)
	}
	wantRow := 0.0
	for j := 0; j < nt; j++ {
		wantRow += fund.At(c.tIdx[0], j)
	}
	got, err := c.MeanTimeToAbsorption(0)
	if err != nil {
		t.Fatal(err)
	}
	if !approx(got, wantRow, 1e-8) {
		t.Errorf("sparse MTTA %v vs dense fundamental %v", got, wantRow)
	}
}

func TestFromGraphDrainNet(t *testing.T) {
	n := spn.New()
	a := n.AddPlace("A")
	bp := n.AddPlace("B")
	n.MustAddTransition(&spn.Transition{
		Name:    "drain",
		Inputs:  []spn.Arc{{Place: a, Weight: 1}},
		Outputs: []spn.Arc{{Place: bp, Weight: 1}},
	})
	n.SetRates(func(m spn.Marking, out []float64) { out[0] = 1.5 * float64(m[a]) })
	g, err := n.Explore(spn.Marking{4, 0}, spn.ExploreOpts{})
	if err != nil {
		t.Fatal(err)
	}
	c := FromGraph(g)
	got, err := c.MeanTimeToAbsorption(g.Initial)
	if err != nil {
		t.Fatal(err)
	}
	want := 0.0
	for k := 1; k <= 4; k++ {
		want += 1 / (1.5 * float64(k))
	}
	if !approx(got, want, 1e-10) {
		t.Errorf("MTTA = %v, want %v", got, want)
	}
}

func TestFromGraphSelfLoopIgnored(t *testing.T) {
	n := spn.New()
	p := n.AddPlace("P")
	q := n.AddPlace("Q")
	// Self-loop churn plus a real exit: the loop must not distort MTTA.
	n.MustAddTransition(&spn.Transition{
		Name:    "churn",
		Inputs:  []spn.Arc{{Place: p, Weight: 1}},
		Outputs: []spn.Arc{{Place: p, Weight: 1}},
	})
	n.MustAddTransition(&spn.Transition{
		Name:    "exit",
		Inputs:  []spn.Arc{{Place: p, Weight: 1}},
		Outputs: []spn.Arc{{Place: q, Weight: 1}},
	})
	n.SetRates(func(m spn.Marking, out []float64) { out[0], out[1] = 100, 0.5 })
	g, err := n.Explore(spn.Marking{1, 0}, spn.ExploreOpts{})
	if err != nil {
		t.Fatal(err)
	}
	c := FromGraph(g)
	got, err := c.MeanTimeToAbsorption(g.Initial)
	if err != nil {
		t.Fatal(err)
	}
	if !approx(got, 2.0, 1e-10) {
		t.Errorf("MTTA = %v, want 2.0 (self loop must be ignored)", got)
	}
}

func TestFromGraphOnlySelfLoopsIsAbsorbing(t *testing.T) {
	n := spn.New()
	p := n.AddPlace("P")
	n.MustAddTransition(&spn.Transition{
		Name:    "loop",
		Inputs:  []spn.Arc{{Place: p, Weight: 1}},
		Outputs: []spn.Arc{{Place: p, Weight: 1}},
	})
	n.SetRates(func(m spn.Marking, out []float64) { out[0] = 3 })
	g, err := n.Explore(spn.Marking{1}, spn.ExploreOpts{})
	if err != nil {
		t.Fatal(err)
	}
	c := FromGraph(g)
	if !c.IsAbsorbing(g.Initial) {
		t.Error("state with only self-loops should be stochastically absorbing")
	}
}

func TestNewChainValidation(t *testing.T) {
	// Negative off-diagonal.
	b := linalg.NewSparseBuilder(2, 2)
	b.Add(0, 1, -1)
	b.Add(0, 0, 1)
	if _, err := NewChain(b.Build()); err == nil {
		t.Error("negative off-diagonal accepted")
	}
	// Row not summing to zero.
	b2 := linalg.NewSparseBuilder(2, 2)
	b2.Add(0, 1, 1)
	b2.Add(0, 0, -2)
	if _, err := NewChain(b2.Build()); err == nil {
		t.Error("non-zero row sum accepted")
	}
	// Non-square.
	b3 := linalg.NewSparseBuilder(2, 3)
	if _, err := NewChain(b3.Build()); err == nil {
		t.Error("non-square accepted")
	}
}

func TestSteadyStateMM1K(t *testing.T) {
	// M/M/1/K queue: pi_k proportional to rho^k.
	lambda, mu := 0.8, 1.0
	K := 6
	var edges [][3]float64
	for k := 0; k < K; k++ {
		edges = append(edges, [3]float64{float64(k), float64(k + 1), lambda})
		edges = append(edges, [3]float64{float64(k + 1), float64(k), mu})
	}
	c := chainFromEdges(K+1, edges)
	pi, err := c.SteadyState()
	if err != nil {
		t.Fatal(err)
	}
	rho := lambda / mu
	norm := 0.0
	for k := 0; k <= K; k++ {
		norm += math.Pow(rho, float64(k))
	}
	for k := 0; k <= K; k++ {
		want := math.Pow(rho, float64(k)) / norm
		if !approx(pi[k], want, 1e-8) {
			t.Errorf("pi[%d] = %v, want %v", k, pi[k], want)
		}
	}
}

func TestSteadyStateRejectsAbsorbing(t *testing.T) {
	c := chainFromEdges(2, [][3]float64{{0, 1, 1}})
	if _, err := c.SteadyState(); err == nil {
		t.Error("SteadyState accepted absorbing chain")
	}
}

func TestTransientTwoState(t *testing.T) {
	lambda := 0.9
	c := chainFromEdges(2, [][3]float64{{0, 1, lambda}})
	for _, tt := range []float64{0, 0.1, 0.5, 1, 3, 10} {
		p0 := linalg.Vector{1, 0}
		pi, err := c.TransientProbabilities(p0, tt, TransientOpts{})
		if err != nil {
			t.Fatal(err)
		}
		want := math.Exp(-lambda * tt)
		if !approx(pi[0], want, 1e-7) {
			t.Errorf("t=%v: pi[0] = %v, want %v", tt, pi[0], want)
		}
		if !approx(pi[0]+pi[1], 1, 1e-9) {
			t.Errorf("t=%v: probabilities sum %v", tt, pi[0]+pi[1])
		}
	}
}

func TestTransientConvergesToSteadyState(t *testing.T) {
	// Ergodic two-state chain: transient at large t approaches pi.
	a, b := 0.4, 1.1
	c := chainFromEdges(2, [][3]float64{{0, 1, a}, {1, 0, b}})
	pi, err := c.SteadyState()
	if err != nil {
		t.Fatal(err)
	}
	pt, err := c.TransientProbabilities(linalg.Vector{1, 0}, 80, TransientOpts{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range pi {
		if !approx(pt[i], pi[i], 1e-6) {
			t.Errorf("state %d: transient %v vs steady %v", i, pt[i], pi[i])
		}
	}
	// Closed form: pi_0 = b/(a+b).
	if !approx(pi[0], b/(a+b), 1e-9) {
		t.Errorf("pi[0] = %v, want %v", pi[0], b/(a+b))
	}
}

func TestTransientValidation(t *testing.T) {
	c := chainFromEdges(2, [][3]float64{{0, 1, 1}})
	if _, err := c.TransientProbabilities(linalg.Vector{1}, 1, TransientOpts{}); err == nil {
		t.Error("wrong p0 length accepted")
	}
	if _, err := c.TransientProbabilities(linalg.Vector{1, 0}, -1, TransientOpts{}); err == nil {
		t.Error("negative time accepted")
	}
}

func TestAccumulatedRewardValidation(t *testing.T) {
	c := chainFromEdges(2, [][3]float64{{0, 1, 1}})
	if _, err := c.AccumulatedReward(0, linalg.Vector{1}); err == nil {
		t.Error("wrong reward length accepted")
	}
	if _, err := c.SojournTimes(5); err == nil {
		t.Error("out-of-range init accepted")
	}
}
