package engine

// Result-cache snapshotting: the engine can export its memoized Results and
// re-admit a previously exported set, which is what internal/persist builds
// the on-disk warm-start snapshot on. The exchange format is deliberately
// dumb — (fingerprint, Result) pairs in recency order — so the engine owns
// cache semantics (striping, LRU order, stats) and persist owns bytes
// (header, checksum, atomic writes).
//
// A snapshot is only as trustworthy as the fingerprint schema that produced
// its keys: if core.Config grows a field, or the Result layout changes, old
// keys would silently alias new configurations. SchemaFingerprint digests
// the exact struct shapes the cache key and value are built from, so any
// such change yields a different digest and persist rejects the stale
// snapshot instead of warm-loading wrong answers.

import (
	"fmt"
	"hash/fnv"
	"reflect"
	"strings"

	"repro/internal/core"
)

// SnapshotEntry is one memoized result: the canonical Config fingerprint it
// is cached under (see Fingerprint) and the Result value itself.
type SnapshotEntry struct {
	Key    string
	Result core.Result
}

// SnapshotEntries exports every cached Result, least recently used first
// across each shard, so RestoreEntries on a fresh engine reproduces the
// recency order (the most recently used points survive longest under later
// LRU pressure). It does not export prepared models — graphs are huge and
// cheap to rebuild relative to their footprint — or touch the stats.
func (e *Engine) SnapshotEntries() []SnapshotEntry {
	return e.SnapshotEntriesMatching(nil)
}

// SnapshotEntriesMatching exports the cached Results whose fingerprint
// satisfies keep (nil keeps everything), in the same per-shard recency
// order as SnapshotEntries. The cluster re-sync path uses it to export one
// peer's ring arc without copying the whole cache over the wire.
func (e *Engine) SnapshotEntriesMatching(keep func(key string) bool) []SnapshotEntry {
	var out []SnapshotEntry
	for i := range e.shards {
		sh := &e.shards[i]
		sh.mu.Lock()
		sh.results.each(func(key string, value core.Result) {
			if keep == nil || keep(key) {
				out = append(out, SnapshotEntry{Key: key, Result: value})
			}
		})
		sh.mu.Unlock()
	}
	return out
}

// AdmitReplica admits one replicated cache entry — a peer's cache-fill or
// a result fetched from a remote solve — through exactly the validated,
// skip-existing gate RestoreEntries applies to snapshots, reporting whether
// the entry was admitted. A non-finite Result is refused (and counted), so
// a poisoned peer can never seed a healthy cache.
func (e *Engine) AdmitReplica(key string, res core.Result) bool {
	return e.RestoreEntries([]SnapshotEntry{{Key: key, Result: res}}) == 1
}

// RestoreEntries warm-loads previously exported entries into the result
// cache, returning how many were admitted. Entries whose key is already
// cached are skipped (a live result is never clobbered by an older
// snapshot); admission still obeys the LRU bounds, so restoring more
// entries than the cache holds keeps only the most recently used tail.
// Entries carrying a non-finite Result are refused — the same poison-proof
// admission gate as live evaluation, so a corrupted-on-disk value that
// survived the CRC (or predates the gate) cannot re-enter the cache.
// Callers are responsible for schema compatibility of the keys —
// internal/persist checks SchemaFingerprint before handing entries here.
func (e *Engine) RestoreEntries(entries []SnapshotEntry) int {
	admitted := 0
	for _, entry := range entries {
		if entry.Key == "" {
			continue
		}
		if ValidateResult(&entry.Result) != nil {
			e.nonFiniteRejected.Add(1)
			continue
		}
		sh := e.shardFor(entry.Key)
		sh.mu.Lock()
		if _, ok := sh.results.get(entry.Key); !ok {
			sh.results.add(entry.Key, entry.Result, 0)
			admitted++
		}
		sh.mu.Unlock()
	}
	return admitted
}

// schemaFormatVersion versions the fingerprint/snapshot contract itself,
// independent of struct shapes: bump it to invalidate every existing
// snapshot after a semantic change that reflection cannot see (e.g. the
// canonicalization rules in Fingerprint). Version 2 is the binary base64
// key layout; version 1 keys were strconv-formatted text, which a version 2
// engine would never look up.
const schemaFormatVersion = 2

// SchemaFingerprint digests the canonical fingerprint schema — the exact
// field names and types of core.Config (the 25-field pin held by
// TestFingerprintCoversConfig), everything reachable from it (cost.Params
// included), and the cached core.Result layout. Two processes agree on
// this string exactly when their cache keys and cached values are
// interchangeable; persisted snapshots carry it in their header and are
// rejected, never silently reused, on mismatch.
func SchemaFingerprint() string {
	var b strings.Builder
	fmt.Fprintf(&b, "repro-fingerprint-schema v%d\n", schemaFormatVersion)
	seen := make(map[reflect.Type]bool)
	describeType(&b, reflect.TypeOf(core.Config{}), seen)
	describeType(&b, reflect.TypeOf(core.Result{}), seen)
	h := fnv.New64a()
	h.Write([]byte(b.String()))
	return fmt.Sprintf("v%d:%016x", schemaFormatVersion, h.Sum64())
}

// describeType appends a structural description of t (recursing into every
// named struct reachable through fields, pointers, slices, arrays, and
// maps) in a deterministic order, so any field addition, removal, rename,
// or retype anywhere in the Config/Result closure changes the description.
func describeType(b *strings.Builder, t reflect.Type, seen map[reflect.Type]bool) {
	switch t.Kind() {
	case reflect.Pointer, reflect.Slice, reflect.Array:
		describeType(b, t.Elem(), seen)
		return
	case reflect.Map:
		describeType(b, t.Key(), seen)
		describeType(b, t.Elem(), seen)
		return
	case reflect.Struct:
	default:
		return
	}
	if seen[t] {
		return
	}
	seen[t] = true
	fmt.Fprintf(b, "%s{", t.String())
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		fmt.Fprintf(b, "%s:%s;", f.Name, f.Type.String())
	}
	b.WriteString("}\n")
	for i := 0; i < t.NumField(); i++ {
		describeType(b, t.Field(i).Type, seen)
	}
}
