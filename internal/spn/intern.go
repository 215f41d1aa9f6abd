package spn

// Marking interning for state-space exploration. Exploration visits every
// reachable marking once per enabled transition, so the lookup "have we
// seen this marking?" is the hottest operation in the whole pipeline. The
// seed implementation rendered each marking to a string key ("3,0,1,...")
// and used a Go map, paying an allocation and a formatting pass per lookup.
// This file replaces that with
//
//   - a packed encoding: when the net has at most 16 places and every token
//     count stays below 2^(64/places), a marking packs losslessly into one
//     uint64, and equality is one integer compare;
//   - an open-addressing hash table (linear probing, power-of-two sizing)
//     keyed by the packed word — or, after a fallback, by a hash of the
//     marking with slice comparison against the interned copy;
//   - a chunked arena that interns each distinct marking exactly once and
//     hands out stable subslices, so Graph.States never reallocates marking
//     storage.
//
// Lookups of already-interned markings are allocation-free (pinned by
// TestMarkingTableLookupAllocs).

// markingArena interns markings in fixed-size chunks. Chunks are never
// reallocated, so the Marking subslices it returns stay valid as the arena
// grows.
type markingArena struct {
	places   int
	perChunk int
	chunks   [][]int
	used     int // markings used in the last chunk
}

const arenaChunkMarkings = 1024

func newMarkingArena(places int) *markingArena {
	// A zero-place net has exactly one (empty) marking; intern's
	// chunk sizing handles it via max(places, 1).
	return &markingArena{places: places, perChunk: arenaChunkMarkings}
}

// intern copies m into the arena and returns a stable subslice.
func (a *markingArena) intern(m Marking) Marking {
	if len(a.chunks) == 0 || a.used == a.perChunk {
		a.chunks = append(a.chunks, make([]int, a.perChunk*max(a.places, 1)))
		a.used = 0
	}
	chunk := a.chunks[len(a.chunks)-1]
	off := a.used * a.places
	dst := chunk[off : off+a.places : off+a.places]
	copy(dst, m)
	a.used++
	return dst
}

// markingTable maps markings to state indices with open addressing. In
// packed mode the key slot holds the packed marking itself (unique, so a
// key match is a state match). After a token count overflows the packed
// width the table rebuilds once into hash mode, where the key slot holds a
// 64-bit hash and collisions fall back to comparing the interned marking.
type markingTable struct {
	places int
	packed bool
	bits   uint // bits per place in packed mode
	limit  uint // 1 << bits: first count that no longer packs
	keys   []uint64
	idxs   []int32 // state index + 1; 0 marks an empty slot
	n      int     // occupied slots
}

func newMarkingTable(places, hint int) *markingTable {
	t := &markingTable{places: places}
	// Markings pack when the net has 1 to 16 places; the field width is
	// capped at 32 bits to avoid a 64-bit shift (2^32 tokens is plenty).
	if places >= 1 && places <= 16 {
		t.packed, t.bits = true, uint(min(64/places, 32))
		t.limit = 1 << t.bits
	}
	size := 1024
	for size < 2*hint {
		size *= 2
	}
	t.keys = make([]uint64, size)
	t.idxs = make([]int32, size)
	return t
}

// pack encodes m into a single uint64, reporting false (hash mode is
// needed) when any count is negative or too wide for the per-place field.
func (t *markingTable) pack(m Marking) (uint64, bool) {
	bits, limit := t.bits, t.limit
	var k uint64
	for _, v := range m {
		if uint(v) >= limit { // catches negatives too
			return 0, false
		}
		k = k<<bits | uint64(v)
	}
	return k, true
}

// mix64 is the splitmix64 finalizer. Probe slots are always derived from
// mix64(key): a raw packed key keeps the last place's token count in its
// low bits, which would cluster the whole state space onto a handful of
// probe chains.
func mix64(k uint64) uint64 {
	k ^= k >> 30
	k *= 0xbf58476d1ce4e5b9
	k ^= k >> 27
	k *= 0x94d049bb133111eb
	k ^= k >> 31
	return k
}

// hash is an FNV-1a style mix over the token counts.
func hashMarking(m Marking) uint64 {
	h := uint64(14695981039346656037)
	for _, v := range m {
		h ^= uint64(uint(v))
		h *= 1099511628211
	}
	// Finalize so that low bits (the probe mask) depend on every count.
	h ^= h >> 29
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 32
	return h
}

// key returns the probe key for m, switching the table to hash mode (a
// one-time rebuild over the interned states) when m no longer packs.
func (t *markingTable) key(m Marking, states []Marking) uint64 {
	if t.packed {
		if k, ok := t.pack(m); ok {
			return k
		}
		t.rebuildHashed(states)
	}
	return hashMarking(m)
}

// lookup finds m without ever mutating the table, so it is safe for
// concurrent readers of a finished graph: a marking that does not pack
// cannot have been interned while the table was in packed mode.
func (t *markingTable) lookup(m Marking, states []Marking) (int, bool) {
	var k uint64
	if t.packed {
		var ok bool
		if k, ok = t.pack(m); !ok {
			return 0, false
		}
	} else {
		k = hashMarking(m)
	}
	return t.find(k, m, states)
}

// rebuildHashed reindexes every interned state under hash keys.
func (t *markingTable) rebuildHashed(states []Marking) {
	t.packed = false
	for i := range t.keys {
		t.keys[i] = 0
		t.idxs[i] = 0
	}
	t.n = 0
	for i, s := range states {
		t.insert(hashMarking(s), i)
	}
}

// find returns the state index interned for m, probing with a key obtained
// from key(). Allocation-free.
func (t *markingTable) find(k uint64, m Marking, states []Marking) (int, bool) {
	mask := uint64(len(t.keys) - 1)
	for slot := mix64(k) & mask; ; slot = (slot + 1) & mask {
		idx := t.idxs[slot]
		if idx == 0 {
			return 0, false
		}
		if t.keys[slot] != k {
			continue
		}
		i := int(idx - 1)
		if t.packed || markingEqual(states[i], m) {
			return i, true
		}
	}
}

// insert records state index i under key k, growing at 3/4 load.
func (t *markingTable) insert(k uint64, i int) {
	if 4*(t.n+1) > 3*len(t.keys) {
		t.grow()
	}
	mask := uint64(len(t.keys) - 1)
	slot := mix64(k) & mask
	for t.idxs[slot] != 0 {
		slot = (slot + 1) & mask
	}
	t.keys[slot] = k
	t.idxs[slot] = int32(i + 1)
	t.n++
}

func (t *markingTable) grow() {
	oldKeys, oldIdxs := t.keys, t.idxs
	t.keys = make([]uint64, 2*len(oldKeys))
	t.idxs = make([]int32, 2*len(oldIdxs))
	mask := uint64(len(t.keys) - 1)
	for s, idx := range oldIdxs {
		if idx == 0 {
			continue
		}
		k := oldKeys[s]
		slot := mix64(k) & mask
		for t.idxs[slot] != 0 {
			slot = (slot + 1) & mask
		}
		t.keys[slot] = k
		t.idxs[slot] = idx
	}
}

func markingEqual(a, b Marking) bool {
	if len(a) != len(b) {
		return false
	}
	for i, v := range a {
		if v != b[i] {
			return false
		}
	}
	return true
}
