package main

// Seeded input generators. Every input a workload sends is drawn from a PCG
// stream keyed by (seed, purpose), so one seed always yields the same pool,
// the same op sequence and the same check sample; the program only ever sees
// the generated configurations.
//
// Properties that move the cost of an op (op kind, N, sweep path) are drawn
// in shuffled blocks rather than independently: each block of k draws holds
// every value once. The marginal shares are then exact up to one partial
// block, so runs with different seeds measure the same mix and differ only
// in which points carry it.

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"sync"

	"repro/internal/core"
	"repro/internal/shapes"
)

// Stream identifiers: one PCG stream per purpose, so adding draws to one
// purpose never shifts another's sequence.
const (
	streamPool = iota + 1
	streamOps
	streamPrime
	streamWarmup
	streamSample
)

func newRand(seed uint64, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, stream))
}

// blocks hands out vals in seeded shuffled blocks: every len(vals)
// consecutive draws starting at a block boundary contain each value once.
type blocks[T any] struct {
	r    *rand.Rand
	vals []T
	perm []int
	pos  int
}

func newBlocks[T any](r *rand.Rand, vals ...T) *blocks[T] {
	return &blocks[T]{r: r, vals: vals}
}

func (b *blocks[T]) next() T {
	if b.pos == len(b.perm) {
		b.perm = b.r.Perm(len(b.vals))
		b.pos = 0
	}
	v := b.vals[b.perm[b.pos]]
	b.pos++
	return v
}

func logUniform(r *rand.Rand, lo, hi float64) float64 {
	return lo * math.Pow(hi/lo, r.Float64())
}

// zipfRank draws a rank in [0, n) with P(k) ∝ (1+k)^-1.1.
func zipfRank(r *rand.Rand, n int) int {
	if n <= 1 {
		return 0
	}
	return int(rand.NewZipf(r, 1.1, 1, uint64(n-1)).Uint64())
}

// opSeq hands out a workload's ops by index. Ops are generated strictly in
// index order from one stream, so op i is the same for a given seed however
// the client goroutines interleave. Each index is taken once; taken ops are
// dropped, so the bench's own memory does not grow with the run.
type opSeq[T any] struct {
	mu      sync.Mutex
	made    int
	pending map[int]T // generated, not yet taken
	next    func() T
}

func newOpSeq[T any](next func() T) *opSeq[T] {
	return &opSeq[T]{pending: make(map[int]T), next: next}
}

func (s *opSeq[T]) take(i int) T {
	s.mu.Lock()
	defer s.mu.Unlock()
	for ; s.made <= i; s.made++ {
		s.pending[s.made] = s.next()
	}
	op, ok := s.pending[i]
	if !ok {
		panic(fmt.Sprintf("op %d taken twice", i)) // indices come from one counter
	}
	delete(s.pending, i)
	return op
}

// firstOps takes ops 0..n-1 of a fresh sequence, for input digests.
func firstOps[T any](s *opSeq[T], n int) []T {
	out := make([]T, n)
	for i := range out {
		out[i] = s.take(i)
	}
	return out
}

// sampleOffset fixes a seeded 1-in-k check sample: op i is checked when
// i%k equals the offset.
func sampleOffset(seed uint64, k int) int {
	return newRand(seed, streamSample).IntN(k)
}

// digestOf hashes the JSON encoding of vs: the input digest a run records
// and the determinism test compares.
func digestOf(vs ...any) string {
	h := sha256.New()
	enc := json.NewEncoder(h)
	for _, v := range vs {
		if err := enc.Encode(v); err != nil {
			panic(err) // generated inputs are plain data; encoding cannot fail
		}
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

// digestOps is the number of leading ops an input digest covers.
const digestOps = 512

var detections = shapes.Kinds()

// --- serve_hot ---

const (
	servePoolSize = 1024
	kindEval      = "eval"
	kindBatch     = "batch"
	kindNDJSON    = "ndjson"
)

// serveOp is one serve_hot request: a route and the pool indices it asks
// for. Top10 counts the points drawn from the ten hottest Zipf ranks.
type serveOp struct {
	Kind  string
	Idx   []int
	Top10 int
}

func servePointsFor(kind string) int {
	switch kind {
	case kindEval:
		return 1
	case kindBatch:
		return 9
	default:
		return 64
	}
}

// servePool draws the 1024-point pool: N∈{20,30,40}, m∈{3,5,7,9} and the
// three detection functions in blocks, TIDS log-uniform over [5,1200].
func servePool(seed uint64) []core.Config {
	r := newRand(seed, streamPool)
	ns := newBlocks(r, 20, 30, 40)
	ms := newBlocks(r, 3, 5, 7, 9)
	ds := newBlocks(r, detections...)
	pool := make([]core.Config, servePoolSize)
	for i := range pool {
		c := core.DefaultConfig()
		c.N, c.M, c.Detection = ns.next(), ms.next(), ds.next()
		c.TIDS = logUniform(r, 5, 1200)
		pool[i] = c
	}
	return pool
}

// newServeOps returns serve_hot's op sequence: routes in blocks of three,
// points Zipf(1.1) over the pool through a seeded rank→index permutation.
func newServeOps(seed uint64) *opSeq[serveOp] {
	r := newRand(seed, streamOps)
	rankToIdx := r.Perm(servePoolSize)
	kinds := newBlocks(r, kindEval, kindBatch, kindNDJSON)
	return newOpSeq(func() serveOp {
		op := serveOp{Kind: kinds.next()}
		op.Idx = make([]int, servePointsFor(op.Kind))
		for j := range op.Idx {
			rank := zipfRank(r, servePoolSize)
			if rank < 10 {
				op.Top10++
			}
			op.Idx[j] = rankToIdx[rank]
		}
		return op
	})
}

func serveHotDigest(seed uint64) string {
	return digestOf(servePool(seed), firstOps(newServeOps(seed), digestOps))
}

// --- cluster_mixed ---

// clusterPrime is both the number of points set-up issues and the recency
// window repeats are drawn from, so the window is full from the first timed
// op and the traffic is the same at every point of a run. Drawing over
// everything issued so far would not be: the cold tail outgrows the result
// caches as a run goes on, re-solves climb, and a faster host, issuing more
// points, would measure a costlier mix.
const (
	clusterBatch = 4
	clusterPrime = 256
)

// clusterOp is one 4-point cluster_mixed batch. Exactly one point is fresh
// (the 0.25 fresh share is exact, not Bernoulli); the rest repeat points
// drawn Zipf(1.1) over the clusterPrime points issued before the batch, most
// recent hottest.
type clusterOp struct {
	Cfgs  []core.Config
	IDs   []int // point ids: index into the issued set
	Fresh int   // position of the fresh point
}

// clusterGen draws fresh points (N∈{20,30,40}, m, detection in blocks, TIDS
// log-uniform) and tracks the issued set the repeats are drawn from.
type clusterGen struct {
	r      *rand.Rand
	ns, ms *blocks[int]
	ds     *blocks[shapes.Kind]
	issued []core.Config
}

func newClusterGen(seed uint64, stream uint64) *clusterGen {
	r := newRand(seed, stream)
	return &clusterGen{
		r:  r,
		ns: newBlocks(r, 20, 30, 40),
		ms: newBlocks(r, 3, 5, 7, 9),
		ds: newBlocks(r, detections...),
	}
}

func (g *clusterGen) fresh() int {
	c := core.DefaultConfig()
	c.N, c.M, c.Detection = g.ns.next(), g.ms.next(), g.ds.next()
	c.TIDS = logUniform(g.r, 5, 1200)
	g.issued = append(g.issued, c)
	return len(g.issued) - 1
}

// clusterPrimeSet is the set-up's issued set: clusterPrime fresh points
// solved before timing, so repeats have a base from the first op on.
func clusterPrimeSet(seed uint64) []core.Config {
	g := newClusterGen(seed, streamPrime)
	for i := 0; i < clusterPrime; i++ {
		g.fresh()
	}
	return g.issued
}

func newClusterOps(seed uint64) *opSeq[clusterOp] {
	g := newClusterGen(seed, streamOps)
	g.issued = clusterPrimeSet(seed)
	return newOpSeq(func() clusterOp {
		op := clusterOp{Fresh: g.r.IntN(clusterBatch)}
		op.IDs = make([]int, clusterBatch)
		op.Cfgs = make([]core.Config, clusterBatch)
		latest := len(g.issued) - 1 // before this batch's fresh point
		for j := range op.IDs {
			if j == op.Fresh {
				op.IDs[j] = g.fresh()
			} else {
				op.IDs[j] = latest - zipfRank(g.r, clusterPrime)
			}
			op.Cfgs[j] = g.issued[op.IDs[j]]
		}
		return op
	})
}

func clusterMixedDigest(seed uint64) string {
	return digestOf(clusterPrimeSet(seed), firstOps(newClusterOps(seed), digestOps))
}

// --- sweep_cold ---

const (
	optDefault     = "default"
	optWarm        = "warm"
	optIncremental = "incremental"
	sweepPoints    = 24
)

// sweepStudy is one sweep_cold op: a base configuration swept over the
// 24-point TIDS grid through one of the three public sweep paths.
type sweepStudy struct {
	Base   core.Config
	Option string
}

// sweepGrid is the study grid: 24 log-spaced TIDS values over [5,1200].
var sweepGrid = func() []float64 {
	g := make([]float64, sweepPoints)
	for i := range g {
		g[i] = 5 * math.Pow(1200.0/5, float64(i)/float64(sweepPoints-1))
	}
	return g
}()

type sweepCell struct {
	N      int
	Option string
	M      int
}

// newSweepStudies draws studies with (N, path, m) in blocks of 36,
// detection and attacker in their own blocks, and LambdaC scaled by
// 2^U(-1,1). N, the path and m each move a study's cost by a factor of 1.5
// or more, so they are drawn jointly: every 36 studies then carry the same
// cost mix. Detection, attacker and LambdaC move it by a few per cent.
func newSweepStudies(seed uint64, stream uint64) *opSeq[sweepStudy] {
	r := newRand(seed, stream)
	var cellVals []sweepCell
	for _, n := range []int{40, 50, 60} {
		for _, o := range []string{optDefault, optWarm, optIncremental} {
			for _, m := range []int{3, 5, 7, 9} {
				cellVals = append(cellVals, sweepCell{n, o, m})
			}
		}
	}
	cells := newBlocks(r, cellVals...)
	ds := newBlocks(r, detections...)
	as := newBlocks(r, detections...)
	return newOpSeq(func() sweepStudy {
		cell := cells.next()
		c := core.DefaultConfig()
		c.N, c.M, c.Detection, c.Attacker = cell.N, cell.M, ds.next(), as.next()
		c.LambdaC *= math.Exp2(2*r.Float64() - 1)
		return sweepStudy{Base: c, Option: cell.Option}
	})
}

func sweepColdDigest(seed uint64) string {
	return digestOf(firstOps(newSweepStudies(seed, streamOps), digestOps))
}

// --- frontier_cold ---

// frontierSpace is the 192-point space every frontier_cold op searches:
// m{3,5,7,9} × a 16-column TIDS grid × the three detection functions.
func frontierSpace() core.DesignSpace {
	return core.DesignSpace{
		Ms:         []int{3, 5, 7, 9},
		TIDSGrid:   []float64{5, 10, 15, 20, 30, 45, 60, 90, 120, 180, 240, 360, 480, 600, 900, 1200},
		Detections: detections,
	}
}

// newFrontierBases draws one fresh base per op: N∈{20,25,30} in blocks,
// LambdaC and P1 scaled by 2^U(-1/2,1/2), so no two ops share a cached point.
func newFrontierBases(seed uint64, stream uint64) *opSeq[core.Config] {
	r := newRand(seed, stream)
	ns := newBlocks(r, 20, 25, 30)
	return newOpSeq(func() core.Config {
		c := core.DefaultConfig()
		c.N = ns.next()
		c.LambdaC *= math.Exp2(r.Float64() - 0.5)
		c.P1 *= math.Exp2(r.Float64() - 0.5)
		return c
	})
}

func frontierColdDigest(seed uint64) string {
	return digestOf(firstOps(newFrontierBases(seed, streamOps), digestOps))
}
