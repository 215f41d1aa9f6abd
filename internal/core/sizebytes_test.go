package core

import (
	"runtime"
	"testing"

	"repro/internal/ctmc"
)

// liveHeap returns the live heap after two full collections.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// retainedPer measures the live heap one build() result retains, averaged
// over reps builds that are all kept alive until the measurement.
func retainedPer(reps int, build func() any) float64 {
	before := liveHeap()
	keep := make([]any, reps)
	for i := range keep {
		keep[i] = build()
	}
	after := liveHeap()
	runtime.KeepAlive(keep)
	return float64(after-before) / float64(reps)
}

// TestSizeBytesTracksHeap pins the byte estimates the engine budgets its
// prepared-model LRU with to the heap they stand for: a solved Prepared,
// an incremental session (which shares its donor's structure), and the
// state the donor's first session builds for all of them (counted by the
// donor's SessionBytes) must each be estimated within ±25% of the live
// heap they retain, at N = 20/30/40/60. The solver is pinned to auto,
// whose block-triangular factors the estimates count.
func TestSizeBytesTracksHeap(t *testing.T) {
	const reps = 4
	within := func(what string, n int, est int64, measured float64) {
		t.Helper()
		ratio := float64(est) / measured
		t.Logf("N=%d %s: estimate %.0f KiB, measured %.0f KiB (%.2fx)", n, what, float64(est)/1024, measured/1024, ratio)
		if ratio < 0.75 || ratio > 1.25 {
			t.Errorf("N=%d %s: estimate %d bytes is %.2fx the measured %.0f", n, what, est, ratio, measured)
		}
	}
	for _, n := range []int{20, 30, 40, 60} {
		cfg := DefaultConfig()
		cfg.N = n
		cfg.Solver = ctmc.BackendAuto
		next := cfg
		next.TIDS *= 1.7
		anchors := make([]*Prepared, 0, reps)
		perPrepared := retainedPer(reps, func() any {
			q, err := Prepare(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := q.Analyze(); err != nil {
				t.Fatal(err)
			}
			anchors = append(anchors, q)
			return q
		})
		p := anchors[0]
		within("Prepared", n, p.SizeBytes(), perPrepared)

		session := func(donor *Prepared) *PreparedDelta {
			s, err := NewPreparedDelta(donor)
			if err != nil {
				t.Fatal(err)
			}
			q, err := s.Prepared(next)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := q.Analyze(); err != nil {
				t.Fatal(err)
			}
			return s
		}
		// Each anchor's first session builds the shared state.
		i := 0
		perFirst := retainedPer(reps, func() any {
			i++
			return session(anchors[i-1])
		})
		var pd *PreparedDelta
		perSession := retainedPer(reps, func() any {
			pd = session(p)
			return pd
		})
		within("PreparedDelta", n, pd.SizeBytes(), perSession)
		within("SessionBytes", n, p.SessionBytes(), perFirst-perSession)
		runtime.KeepAlive(anchors)
	}
}
