package core

import (
	"container/list"
	"math"
	"sync"

	"repro/internal/voting"
)

// The voting error probabilities (Pfn, Pfp) are a pure function of the
// IDS protocol, M, P1, P2 and one group's composition (nGood, nBad): they
// do not depend on N, TIDS, the detection shape or the structural family.
// So the process keeps one bounded store of frozen voting tables, keyed by
// those four inputs, and every model of a key reads the same table.

// MaxVoteTableBytes bounds the process-wide voting-table store. A table
// of N <= 60 holds under 20 KiB, so a workload's few keys stay resident,
// while a stream of fresh P1 or P2 values (one adaptive frontier per base,
// forward sensitivities) only cycles the least recently used tables; each
// of those is garbage once evicted, so the bound is also what such a
// stream adds to the live heap. A table larger than the bound (N of 250
// or more) is handed to the model that asked for it but not kept, and
// leaves the stored tables alone.
const MaxVoteTableBytes = 256 << 10

// votePair is one group composition's voting error probabilities.
type votePair struct{ pfn, pfp float64 }

// voteTable holds the voting error probabilities by composition,
// rows[nGood][nBad] for nGood up to the table's extent and nBad <
// voteRowLen(nGood). A table is frozen when published: never written
// again, so every model reads it by pointer with no lock and no atomic.
type voteTable struct {
	rows [][]votePair
}

// voteRowLen is the length of row nGood: every live state's per-group
// composition has nBad <= nGood/2 + 1. A live state has 2·UCm <= Tm, and
// with g groups nBad = round(UCm/g) <= UCm/g + 1/2 while nGood =
// round(Tm/g) > Tm/g - 1/2, so nBad < nGood/2 + 3/4; perGroup's floor of
// one bad member when UCm > 0 stays within the bound too. And nGood <= Tm
// <= N, so a table of extent N holds every key a model's rate function
// and cost pass read.
func voteRowLen(nGood int) int { return nGood/2 + 2 }

func (t *voteTable) get(nGood, nBad int) (votePair, bool) {
	if nGood < len(t.rows) {
		if row := t.rows[nGood]; nBad < len(row) {
			return row[nBad], true
		}
	}
	return votePair{}, false
}

// extent is the largest nGood the table covers (-1 for none, or a nil
// table).
func (t *voteTable) extent() int {
	if t == nil {
		return -1
	}
	return len(t.rows) - 1
}

func (t *voteTable) sizeBytes() int64 {
	const header, pair = 24, 16
	size := int64(cap(t.rows)) * header
	for _, row := range t.rows {
		size += int64(cap(row)) * pair
	}
	return size
}

// voteKey is every input of the voting error probabilities besides the
// composition. The cluster head's closed forms ignore M, so its keys
// carry M = 0 and every M shares one table.
type voteKey struct {
	protocol Protocol
	m        int
	p1, p2   uint64 // math.Float64bits
}

func voteKeyOf(cfg Config) voteKey {
	k := voteKey{protocol: cfg.Protocol, m: cfg.M, p1: math.Float64bits(cfg.P1), p2: math.Float64bits(cfg.P2)}
	if k.protocol == ProtocolClusterHead {
		k.m = 0
	}
	return k
}

// probs returns (Pfn, Pfp) for one composition: the cluster-head closed
// forms, or Equation 1 through equation1 (a voting.Memo's or plain
// voting.Params' Probabilities, which agree bitwise).
func (k voteKey) probs(nGood, nBad int, equation1 func(nGood, nBad int) (float64, float64)) (pfn, pfp float64) {
	if k.protocol == ProtocolClusterHead {
		p1, p2 := math.Float64frombits(k.p1), math.Float64frombits(k.p2)
		return voting.ClusterHeadFalseNegative(nGood, nBad, p1), voting.ClusterHeadFalsePositive(nGood, nBad, p2)
	}
	return equation1(nGood, nBad)
}

func (k voteKey) params() voting.Params {
	return voting.Params{M: k.m, P1: math.Float64frombits(k.p1), P2: math.Float64frombits(k.p2)}
}

// grown returns a new table of key covering nGood <= extent. It shares
// t's rows, which are immutable, and computes only the rows beyond them,
// in one array, through one voting.Memo.
func (t *voteTable) grown(key voteKey, extent int) *voteTable {
	var rows [][]votePair
	if t != nil {
		rows = t.rows
	}
	from := len(rows)
	rows = append(rows[:from:from], make([][]votePair, extent+1-from)...)
	slots := 0
	for g := from; g <= extent; g++ {
		slots += voteRowLen(g)
	}
	flat := make([]votePair, slots)
	equation1 := voting.NewMemo(key.params()).Probabilities
	for g := from; g <= extent; g++ {
		n := voteRowLen(g)
		row := flat[:n:n]
		flat = flat[n:]
		for b := range row {
			row[b].pfn, row[b].pfp = key.probs(g, b, equation1)
		}
		rows[g] = row
	}
	return &voteTable{rows: rows}
}

// voteExtent is the largest nGood a model of cfg needs in its voting
// table: N, unless a table that large would hold more slots than the
// exploration may hold states. Such a model reads the rows it has and
// computes the compositions beyond them without storing them. The extent
// is never below 0, so every model holds a table.
func voteExtent(cfg Config) int {
	limit := cfg.EffectiveMaxStates()
	n, slots := 0, voteRowLen(0)
	for n < cfg.N && slots+voteRowLen(n+1) <= limit {
		n++
		slots += voteRowLen(n)
	}
	return n
}

// voteStore is the process's store of frozen voting tables, least recently
// used first out, bounded by MaxVoteTableBytes.
type voteStore struct {
	mu      sync.Mutex
	entries map[voteKey]*list.Element // of *voteEntry
	lru     list.List                 // front: most recently used
	bytes   int64
	built   uint64
}

type voteEntry struct {
	key   voteKey
	table *voteTable
}

var voteTables = voteStore{entries: make(map[voteKey]*list.Element)}

// table returns a frozen table of key covering nGood <= extent. When the
// stored table is smaller (or absent), it grows one outside the lock and
// stores it unless another model stored one at least as large meanwhile.
func (s *voteStore) table(key voteKey, extent int) *voteTable {
	s.mu.Lock()
	var t *voteTable
	if el, ok := s.entries[key]; ok {
		s.lru.MoveToFront(el)
		t = el.Value.(*voteEntry).table
	}
	s.mu.Unlock()
	if t.extent() >= extent {
		return t
	}
	grown := t.grown(key, extent)
	size := grown.sizeBytes()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.built++
	if size > MaxVoteTableBytes {
		return grown
	}
	el, ok := s.entries[key]
	if !ok {
		s.entries[key] = s.lru.PushFront(&voteEntry{key: key, table: grown})
	} else if e := el.Value.(*voteEntry); e.table.extent() < grown.extent() {
		s.lru.MoveToFront(el)
		s.bytes -= e.table.sizeBytes()
		e.table = grown
	} else {
		return grown
	}
	s.bytes += size
	s.evict()
	return grown
}

// evict drops least recently used tables until the store is within its
// bound. The front table, at most MaxVoteTableBytes, always stays. s.mu
// must be held.
func (s *voteStore) evict() {
	for s.bytes > MaxVoteTableBytes {
		e := s.lru.Remove(s.lru.Back()).(*voteEntry)
		delete(s.entries, e.key)
		s.bytes -= e.table.sizeBytes()
	}
}

// VoteTableStats reports the voting-table store: the tables built (first
// fills and growths, stored or not) since the process started, and the
// bytes it holds now.
func VoteTableStats() (built uint64, bytes int64) {
	voteTables.mu.Lock()
	defer voteTables.mu.Unlock()
	return voteTables.built, voteTables.bytes
}
