package spn

// Parallel sharded-frontier reachability exploration.
//
// The sequential explorer (spn.go) is a single BFS over an interned marking
// table; after PR 2 made its miss path allocation-free, the remaining lever
// on cold-sweep wall clock is the core count. This file partitions the
// state space across P worker shards by the splitmix64 hash of the packed
// marking. Each shard owns
//
//   - a private open-addressing table (pmap) mapping packed markings to
//     shard-local state ids — no locks on the hot probe path,
//   - a private append-only arena of packed markings (local id -> uint64)
//     and a private flat edge arena, and
//   - a private cache of already-resolved remote markings, so a cross-shard
//     edge to a known state costs one local probe, no message.
//
// Workers run a level-synchronized BFS. Within a level each worker expands
// its own frontier: successors it owns are interned locally; successors
// owned by another shard are batched into one outbox per destination —
// each distinct marking once, later edges to it attach to the existing
// entry — and the edge is recorded with a pending destination. At the end of the level
// every worker (1) sends each peer its batch over that peer's buffered
// channel — always, even when empty, so receive counts are fixed — (2)
// receives P-1 batches, interns the markings, and replies with the assigned
// local ids in batch order, (3) receives P-1 replies and patches its
// pending edges, then (4) meets the others at a barrier that sums the
// states interned this level. A level that interns nothing anywhere
// terminates the search. Because expansion for level t+1 begins only after
// every worker passed the level-t barrier, batches and replies can never
// mix across levels, and because all channels are buffered for a full
// level's traffic, no send ever blocks: the protocol is deadlock-free by
// counting.
//
// Determinism: shard-local ids depend on P and on scheduling, so after the
// workers finish, the shard graphs are renumbered by a sequential BFS over
// the already-built adjacency — initial state first, then each state's
// successors in transition order. That is exactly the discovery order of
// the sequential explorer, so the final Graph (state order, marking values,
// edge arena layout, fingerprint) is byte-identical to Explore's output for
// every P. The property is pinned by TestExploreParallelMatchesSequential.
//
// The parallel path requires markings to pack into a uint64 (at most 16
// places, token counts below 2^(64/places)); a marking that does not pack
// aborts the workers and the caller transparently re-runs the sequential
// explorer, which handles arbitrary markings via its hashed fallback.

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
)

// MaxParallelism caps the worker-shard count; beyond this the per-level
// message matrix (P^2 batches) costs more than the extra cores buy.
// Callers that allocate per-worker resources (core.Model.Explore builds
// one net replica per worker) clamp against it too.
const MaxParallelism = 64

// abort reasons shared across workers.
const (
	abortNone int32 = iota
	abortBound
	abortPack
)

// errPackFallback signals internally that the state space left the packed
// domain and exploration must restart on the sequential path.
var errPackFallback = fmt.Errorf("spn: marking does not pack; sequential fallback")

// pendingDst marks an edge whose destination id is awaited from a peer.
const pendingDst = ^uint64(0)

// pendingTag marks a remote-cache value that is an outbox entry index for
// the current level rather than a resolved ref (refs occupy at most
// 16+48 bits, so bit 63 is free). It dedups same-level sends: the first
// occurrence of a foreign marking enqueues it and records its entry
// index; later occurrences just attach their edges to that entry.
const pendingTag = uint64(1) << 63

// ref packs a (shard, local id) state reference: shard in the high 16
// bits, local id in the low 48.
func ref(shard int, local int32) uint64 {
	return uint64(shard)<<48 | uint64(uint32(local))
}

func refShard(r uint64) int   { return int(r >> 48) }
func refLocal(r uint64) int32 { return int32(r & 0xffffffffffff) }

// pmap is a minimal open-addressing uint64 -> uint64 map (linear probing,
// power-of-two sizing, probes derived from mix64). Values are stored +1 so
// zero marks an empty slot; keys may be any uint64 including zero.
type pmap struct {
	keys []uint64
	vals []uint64
	n    int
}

func newPmap(hint int) *pmap {
	size := 64
	for size < 2*hint {
		size *= 2
	}
	return &pmap{keys: make([]uint64, size), vals: make([]uint64, size)}
}

// get returns the stored value for k.
func (p *pmap) get(k uint64) (uint64, bool) {
	mask := uint64(len(p.keys) - 1)
	for slot := mix64(k) & mask; ; slot = (slot + 1) & mask {
		v := p.vals[slot]
		if v == 0 {
			return 0, false
		}
		if p.keys[slot] == k {
			return v - 1, true
		}
	}
}

// update overwrites the value of a key that must already be present.
func (p *pmap) update(k, v uint64) {
	mask := uint64(len(p.keys) - 1)
	slot := mix64(k) & mask
	for p.keys[slot] != k || p.vals[slot] == 0 {
		slot = (slot + 1) & mask
	}
	p.vals[slot] = v + 1
}

// put inserts k -> v; k must not be present.
func (p *pmap) put(k, v uint64) {
	if 4*(p.n+1) > 3*len(p.keys) {
		p.grow()
	}
	mask := uint64(len(p.keys) - 1)
	slot := mix64(k) & mask
	for p.vals[slot] != 0 {
		slot = (slot + 1) & mask
	}
	p.keys[slot] = k
	p.vals[slot] = v + 1
	p.n++
}

func (p *pmap) grow() {
	oldKeys, oldVals := p.keys, p.vals
	p.keys = make([]uint64, 2*len(oldKeys))
	p.vals = make([]uint64, 2*len(oldVals))
	mask := uint64(len(p.keys) - 1)
	for s, v := range oldVals {
		if v == 0 {
			continue
		}
		slot := mix64(oldKeys[s]) & mask
		for p.vals[slot] != 0 {
			slot = (slot + 1) & mask
		}
		p.keys[slot] = oldKeys[s]
		p.vals[slot] = v
	}
}

// workBarrier is a reusable all-to-all barrier that sums a per-worker
// contribution; every arriver receives the same verdict for the
// generation.
type workBarrier struct {
	mu      sync.Mutex
	cond    *sync.Cond
	workers int
	arrived int
	gen     int
	sum     int
	stopped bool
	result  int
}

func newWorkBarrier(workers int) *workBarrier {
	b := &workBarrier{workers: workers}
	b.cond = sync.NewCond(&b.mu)
	return b
}

// arrive blocks until all workers of this generation arrived and returns
// the generation's verdict: -1 when any arriver carried stop, otherwise
// the summed work. Folding stop into the barrier is what makes the
// continue/exit decision consistent — a worker that raised the abort flag
// during the level always arrives with stop=true, so checking the shared
// atomic again after the barrier (where another worker may already be a
// level ahead and aborting) is never needed, and all workers of a
// generation make the same decision. A fast worker re-arriving for the
// next generation cannot clobber result: the new verdict is only written
// by the last arrival, which requires every worker (including slow
// readers of the previous result) to have returned first.
func (b *workBarrier) arrive(work int, stop bool) int {
	b.mu.Lock()
	defer b.mu.Unlock()
	gen := b.gen
	b.sum += work
	if stop {
		b.stopped = true
	}
	b.arrived++
	if b.arrived == b.workers {
		if b.stopped {
			b.result = -1
		} else {
			b.result = b.sum
		}
		b.sum, b.arrived, b.stopped = 0, 0, false
		b.gen++
		b.cond.Broadcast()
		return b.result
	}
	for gen == b.gen {
		b.cond.Wait()
	}
	return b.result
}

// parBatch carries one level's cross-shard markings from one sender.
type parBatch struct {
	from   int
	packed []uint64
}

// parReply returns the local ids assigned to a previously sent batch, in
// batch order.
type parReply struct {
	from int
	ids  []int32
}

// parEdge is one reachability edge during the parallel phase; dst is a ref
// (or pendingDst until the owner's reply arrives).
type parEdge struct {
	dst   uint64
	rate  float64
	trans int32
}

// pendingEdge ties an edge awaiting resolution to the outbox entry whose
// reply will carry its destination id.
type pendingEdge struct {
	entry int // index into outPacked[d] (and the reply's ids)
	edge  int // index into the shard's edge arena
}

// parShard is one worker's private slice of the state space.
type parShard struct {
	id       int
	table    *pmap    // packed marking -> local id
	packed   []uint64 // local id -> packed marking (insertion order)
	edges    []parEdge
	rowStart []int // per expanded local id, +1 sentinel appended as states expand
	frontier int   // first local id not yet expanded

	outPacked [][]uint64      // per destination shard: unique markings sent this level
	outEdges  [][]pendingEdge // per destination shard: edges awaiting ids
	remote    *pmap           // packed marking -> resolved ref, or pendingTag|entry this level

	batches chan parBatch
	replies chan parReply
}

// parExplorer holds the state shared by all workers of one exploration.
type parExplorer struct {
	nets      []*Net // one per worker; replicas isolate non-thread-safe closures
	shards    []*parShard
	places    int
	spec      packSpec // shared with markingTable: one packability rule
	maxStates int
	total     atomic.Int64
	abort     atomic.Int32
	barrier   *workBarrier
}

// owner maps a packed marking to its shard. The shard index comes from the
// high half of the mixed hash; the pmap probes use the low bits, so shard
// membership does not cluster table probe chains.
func (e *parExplorer) owner(k uint64) int {
	return int((mix64(k) >> 32) % uint64(len(e.shards)))
}

// intern returns the shard-local id of packed marking k, inserting it if
// new (subject to the global state bound). After an abort it degenerates to
// returning junk ids; the result is discarded.
func (s *parShard) intern(k uint64, e *parExplorer) int32 {
	if v, ok := s.table.get(k); ok {
		return int32(v)
	}
	if e.abort.Load() != abortNone {
		return 0
	}
	if e.total.Add(1) > int64(e.maxStates) {
		e.abort.CompareAndSwap(abortNone, abortBound)
		return 0
	}
	id := int32(len(s.packed))
	s.packed = append(s.packed, k)
	s.table.put(k, uint64(id))
	return id
}

// exploreParallel runs the sharded-frontier search. It returns
// errPackFallback when a marking leaves the packed domain, in which case
// the caller re-runs the sequential explorer.
func (n *Net) exploreParallel(initial Marking, opts ExploreOpts, maxStates, hint int) (*Graph, error) {
	p := opts.Parallelism
	if p > MaxParallelism {
		p = MaxParallelism
	}
	places := len(n.placeNames)
	spec, ok := packSpecFor(places)
	if !ok {
		return nil, errPackFallback
	}
	e := &parExplorer{
		nets:      make([]*Net, p),
		shards:    make([]*parShard, p),
		places:    places,
		spec:      spec,
		maxStates: maxStates,
		barrier:   newWorkBarrier(p),
	}
	for w := 0; w < p; w++ {
		net := n
		if w > 0 && w-1 < len(opts.Replicas) && opts.Replicas[w-1] != nil {
			net = opts.Replicas[w-1]
		}
		if len(net.placeNames) != places || len(net.trans) != len(n.trans) {
			return nil, fmt.Errorf("spn: replica net %d has %d places / %d transitions, base has %d / %d",
				w-1, len(net.placeNames), len(net.trans), places, len(n.trans))
		}
		e.nets[w] = net
		perHint := hint/p + 1
		s := &parShard{
			id:        w,
			table:     newPmap(perHint),
			remote:    newPmap(perHint),
			outPacked: make([][]uint64, p),
			outEdges:  make([][]pendingEdge, p),
			rowStart:  []int{0},
			// Buffered for a full level's traffic (P-1 peers), so the
			// level protocol never blocks on send.
			batches: make(chan parBatch, p),
			replies: make(chan parReply, p),
		}
		e.shards[w] = s
	}

	k0, ok := e.spec.pack(initial)
	if !ok {
		return nil, errPackFallback
	}
	seed := e.shards[e.owner(k0)]
	seed.packed = append(seed.packed, k0)
	seed.table.put(k0, 0)
	e.total.Store(1)

	var wg sync.WaitGroup
	for w := 0; w < p; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			e.runWorker(w)
		}(w)
	}
	wg.Wait()

	switch e.abort.Load() {
	case abortBound:
		return nil, fmt.Errorf("spn: state space exceeded %d states", maxStates)
	case abortPack:
		return nil, errPackFallback
	}
	return e.assemble(n, ref(seed.id, 0))
}

// runWorker is one shard's level loop; see the file comment for the
// protocol and its deadlock-freedom argument.
func (e *parExplorer) runWorker(w int) {
	s := e.shards[w]
	net := e.nets[w]
	p := len(e.shards)
	cur := make(Marking, e.places)
	next := make(Marking, e.places)
	for {
		// Phase 1: expand this level's frontier. Local ids are appended in
		// intern order and every level's new ids form a contiguous block,
		// so expansion in id order keeps rowStart aligned with local ids.
		limit := len(s.packed)
		for l := s.frontier; l < limit; l++ {
			if e.abort.Load() != abortNone {
				break
			}
			e.spec.unpack(cur, s.packed[l])
			for ti, t := range net.trans {
				rate, ok := net.enabled(t, cur)
				if !ok {
					continue
				}
				fireInto(next, t, cur)
				k, ok := e.spec.pack(next)
				if !ok {
					e.abort.CompareAndSwap(abortNone, abortPack)
					break
				}
				var dst uint64
				if d := e.owner(k); d == s.id {
					dst = ref(s.id, s.intern(k, e))
				} else if v, ok := s.remote.get(k); ok && v&pendingTag == 0 {
					dst = v
				} else {
					if !ok {
						// First sight of this foreign marking: one outbox
						// entry serves every edge to it this level.
						s.remote.put(k, pendingTag|uint64(len(s.outPacked[d])))
						v = pendingTag | uint64(len(s.outPacked[d]))
						s.outPacked[d] = append(s.outPacked[d], k)
					}
					s.outEdges[d] = append(s.outEdges[d], pendingEdge{
						entry: int(v &^ pendingTag),
						edge:  len(s.edges),
					})
					dst = pendingDst
				}
				s.edges = append(s.edges, parEdge{dst: dst, rate: rate, trans: int32(ti)})
			}
			s.rowStart = append(s.rowStart, len(s.edges))
		}
		s.frontier = limit

		// Phase 2: send every peer its batch (empty batches included, so
		// each worker receives exactly P-1 batches per level).
		for d := 0; d < p; d++ {
			if d != s.id {
				e.shards[d].batches <- parBatch{from: s.id, packed: s.outPacked[d]}
			}
		}
		// Phase 3: intern incoming markings, reply with their local ids.
		for i := 0; i < p-1; i++ {
			b := <-s.batches
			var ids []int32
			if len(b.packed) > 0 {
				ids = make([]int32, len(b.packed))
				for j, k := range b.packed {
					ids[j] = s.intern(k, e)
				}
			}
			e.shards[b.from].replies <- parReply{from: s.id, ids: ids}
		}
		// Phase 4: resolve this level's outbox entries from the replies,
		// patch every edge attached to them, and reset the outboxes.
		for i := 0; i < p-1; i++ {
			r := <-s.replies
			d := r.from
			for j, id := range r.ids {
				s.remote.update(s.outPacked[d][j], ref(d, id))
			}
			for _, pe := range s.outEdges[d] {
				s.edges[pe.edge].dst = ref(d, r.ids[pe.entry])
			}
			s.outPacked[d] = s.outPacked[d][:0]
			s.outEdges[d] = s.outEdges[d][:0]
		}
		// Phase 5: level barrier. The verdict — nothing interned anywhere
		// (0) or an abort raised during the level (-1) — is computed once
		// by the last arriver, so every worker exits or continues
		// together; a post-barrier re-read of the abort flag would race
		// with workers already aborting in the next level.
		produced := len(s.packed) - s.frontier
		if e.barrier.arrive(produced, e.abort.Load() != abortNone) <= 0 {
			return
		}
	}
}

// assemble renumbers the shard-local graphs into the sequential BFS order
// and materializes the final Graph. The BFS walks the already-built
// adjacency — initial state first, successors in transition order, new
// states numbered at first discovery — which is exactly the order the
// sequential explorer assigns, so the result is byte-identical to
// Explore's for every P and schedule.
func (e *parExplorer) assemble(n *Net, initRef uint64) (*Graph, error) {
	total := int(e.total.Load())
	finalID := make([][]int32, len(e.shards))
	for i, s := range e.shards {
		finalID[i] = make([]int32, len(s.packed))
		for j := range finalID[i] {
			finalID[i][j] = -1
		}
	}
	order := make([]uint64, 0, total)
	order = append(order, initRef)
	finalID[refShard(initRef)][refLocal(initRef)] = 0
	nEdges := 0
	for head := 0; head < len(order); head++ {
		r := order[head]
		s := e.shards[refShard(r)]
		l := refLocal(r)
		for k := s.rowStart[l]; k < s.rowStart[l+1]; k++ {
			d := s.edges[k].dst
			ds, dl := refShard(d), refLocal(d)
			if finalID[ds][dl] < 0 {
				finalID[ds][dl] = int32(len(order))
				order = append(order, d)
			}
		}
		nEdges += s.rowStart[l+1] - s.rowStart[l]
	}
	if len(order) != total {
		// Cannot happen: every interned state is reachable from the
		// initial state by construction of the frontier.
		return nil, fmt.Errorf("spn: parallel renumber visited %d of %d states", len(order), total)
	}

	g := &Graph{
		Net:      n,
		States:   make([]Marking, 0, total),
		PlaceIdx: make(map[string]int, len(n.placeIdx)),
		table:    newMarkingTable(e.places, total),
		nEdges:   nEdges,
		edgeCap:  nEdges,
	}
	for name, i := range n.placeIdx {
		g.PlaceIdx[name] = i
	}
	arena := newMarkingArena(e.places)
	scratch := make(Marking, e.places)
	for i, r := range order {
		e.spec.unpack(scratch, e.shards[refShard(r)].packed[refLocal(r)])
		m := arena.intern(scratch)
		g.States = append(g.States, m)
		g.table.insert(g.table.key(m, g.States), i)
	}
	g.Initial = 0

	flat := make([]Edge, 0, nEdges)
	rowStart := make([]int, 1, total+1)
	for _, r := range order {
		s := e.shards[refShard(r)]
		l := refLocal(r)
		for k := s.rowStart[l]; k < s.rowStart[l+1]; k++ {
			pe := s.edges[k]
			flat = append(flat, Edge{
				To:         int(finalID[refShard(pe.dst)][refLocal(pe.dst)]),
				Rate:       pe.rate,
				Transition: int(pe.trans),
			})
		}
		rowStart = append(rowStart, len(flat))
	}
	g.Edges = make([][]Edge, total)
	for i := range g.Edges {
		g.Edges[i] = flat[rowStart[i]:rowStart[i+1]:rowStart[i+1]]
	}
	return g, nil
}

// Fingerprint returns a 64-bit digest of the graph's full structure: state
// count, initial state, every marking's token counts in state order, and
// every edge's (destination, transition, exact rate bits) in arena order.
// Two graphs with equal fingerprints are byte-identical for every consumer
// in the pipeline (CSR assembly, absorption classification, sampling), so
// the parallel-exploration tests and the bench harness use it to prove
// bit-identity with the sequential explorer.
func (g *Graph) Fingerprint() uint64 {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	mixIn := func(v uint64) {
		h = (h ^ mix64(v)) * prime
	}
	mixIn(uint64(len(g.States)))
	mixIn(uint64(g.Initial))
	for _, m := range g.States {
		for _, tok := range m {
			mixIn(uint64(uint(tok)))
		}
	}
	for _, row := range g.Edges {
		mixIn(uint64(len(row)))
		for _, e := range row {
			mixIn(uint64(e.To))
			mixIn(uint64(e.Transition))
			mixIn(math.Float64bits(e.Rate))
		}
	}
	return h
}
