package des

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestEventsFireInTimeOrder(t *testing.T) {
	s := New()
	var order []float64
	for _, tt := range []float64{5, 1, 3, 2, 4} {
		tt := tt
		s.Schedule(tt, "e", func(now float64) { order = append(order, now) })
	}
	s.RunUntilEmpty()
	if !sort.Float64sAreSorted(order) {
		t.Fatalf("events out of order: %v", order)
	}
	if len(order) != 5 {
		t.Fatalf("fired %d events, want 5", len(order))
	}
	if s.Fired() != 5 {
		t.Errorf("Fired = %d", s.Fired())
	}
}

func TestEqualTimesFIFO(t *testing.T) {
	s := New()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		s.Schedule(1, "e", func(float64) { order = append(order, i) })
	}
	s.RunUntilEmpty()
	for i, v := range order {
		if v != i {
			t.Fatalf("equal-time events not FIFO: %v", order)
		}
	}
}

func TestScheduleAfter(t *testing.T) {
	s := New()
	var fired float64
	s.ScheduleAfter(2, "a", func(now float64) {
		s.ScheduleAfter(3, "b", func(now float64) { fired = now })
	})
	s.RunUntilEmpty()
	if fired != 5 {
		t.Errorf("nested event fired at %v, want 5", fired)
	}
}

func TestCancel(t *testing.T) {
	s := New()
	fired := false
	e := s.Schedule(1, "x", func(float64) { fired = true })
	s.Cancel(e)
	if !e.Cancelled() {
		t.Error("event not marked cancelled")
	}
	s.RunUntilEmpty()
	if fired {
		t.Error("cancelled event fired")
	}
	// Double cancel and nil cancel are no-ops.
	s.Cancel(e)
	s.Cancel(nil)
}

func TestCancelMiddleOfHeap(t *testing.T) {
	s := New()
	var got []string
	a := s.Schedule(1, "a", func(float64) { got = append(got, "a") })
	b := s.Schedule(2, "b", func(float64) { got = append(got, "b") })
	c := s.Schedule(3, "c", func(float64) { got = append(got, "c") })
	_ = a
	s.Cancel(b)
	s.RunUntilEmpty()
	if len(got) != 2 || got[0] != "a" || got[1] != "c" {
		t.Fatalf("got %v, want [a c]", got)
	}
	_ = c
}

func TestHorizonStopsRun(t *testing.T) {
	s := New()
	count := 0
	for i := 1; i <= 10; i++ {
		s.Schedule(float64(i), "e", func(float64) { count++ })
	}
	end := s.Run(5.5)
	if count != 5 {
		t.Errorf("fired %d events, want 5", count)
	}
	if end != 5 {
		t.Errorf("clock = %v, want 5", end)
	}
	if s.Pending() != 5 {
		t.Errorf("pending = %d, want 5", s.Pending())
	}
	// Resume past the horizon.
	s.Run(100)
	if count != 10 {
		t.Errorf("after resume fired %d, want 10", count)
	}
}

func TestEmptyQueueAdvancesToHorizon(t *testing.T) {
	s := New()
	if got := s.Run(42); got != 42 {
		t.Errorf("clock = %v, want 42", got)
	}
}

func TestHalt(t *testing.T) {
	s := New()
	count := 0
	for i := 1; i <= 10; i++ {
		i := i
		s.Schedule(float64(i), "e", func(float64) {
			count++
			if i == 3 {
				s.Halt()
			}
		})
	}
	s.Run(100)
	if count != 3 {
		t.Errorf("fired %d events, want 3 (halted)", count)
	}
}

// TestHaltKeepsClockWithEmptyQueue pins that a run halted by the only
// queued event returns that event's time, not the horizon: the queue is
// empty after the halt, which must not advance the clock.
func TestHaltKeepsClockWithEmptyQueue(t *testing.T) {
	s := New()
	s.Schedule(7, "fail", func(float64) { s.Halt() })
	if got := s.Run(100); got != 7 {
		t.Fatalf("Run returned %v, want the halting event's time 7", got)
	}
	if got := s.Now(); got != 7 {
		t.Fatalf("clock at %v after the halt, want 7", got)
	}
}

func TestSchedulePastPanics(t *testing.T) {
	s := New()
	s.Schedule(5, "e", func(float64) {})
	s.Run(10)
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past did not panic")
		}
	}()
	s.Schedule(1, "late", func(float64) {})
}

func TestNilHandlerPanics(t *testing.T) {
	s := New()
	defer func() {
		if recover() == nil {
			t.Fatal("nil handler did not panic")
		}
	}()
	s.Schedule(1, "e", nil)
}

func TestNegativeDelayPanics(t *testing.T) {
	s := New()
	defer func() {
		if recover() == nil {
			t.Fatal("negative delay did not panic")
		}
	}()
	s.ScheduleAfter(-1, "e", func(float64) {})
}

func TestStreamExpMean(t *testing.T) {
	st := NewStream(1)
	rate := 0.25
	n := 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += st.Exp(rate)
	}
	mean := sum / float64(n)
	if math.Abs(mean-4) > 0.05 {
		t.Errorf("Exp mean = %v, want ~4", mean)
	}
}

func TestStreamExpBadRatePanics(t *testing.T) {
	st := NewStream(1)
	defer func() {
		if recover() == nil {
			t.Fatal("Exp(0) did not panic")
		}
	}()
	st.Exp(0)
}

func TestStreamUniformRange(t *testing.T) {
	st := NewStream(2)
	for i := 0; i < 10000; i++ {
		v := st.Uniform(3, 7)
		if v < 3 || v >= 7 {
			t.Fatalf("Uniform out of range: %v", v)
		}
	}
}

func TestStreamBernoulliFrequency(t *testing.T) {
	st := NewStream(3)
	n, hits := 100000, 0
	for i := 0; i < n; i++ {
		if st.Bernoulli(0.3) {
			hits++
		}
	}
	f := float64(hits) / float64(n)
	if math.Abs(f-0.3) > 0.01 {
		t.Errorf("Bernoulli frequency = %v, want ~0.3", f)
	}
}

func TestSampleWithoutReplacementProperties(t *testing.T) {
	f := func(seed int64, nRaw, kRaw uint8) bool {
		st := NewStream(seed)
		n := int(nRaw%50) + 1
		k := int(kRaw % 60)
		s := st.SampleWithoutReplacement(n, k)
		wantLen := k
		if wantLen > n {
			wantLen = n
		}
		if len(s) != wantLen {
			return false
		}
		seen := map[int]bool{}
		for _, v := range s {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestSampleWithoutReplacementUniform(t *testing.T) {
	// Each index appears in a k-of-n sample with probability k/n.
	st := NewStream(11)
	n, k, trials := 10, 3, 100000
	counts := make([]int, n)
	for tr := 0; tr < trials; tr++ {
		for _, v := range st.SampleWithoutReplacement(n, k) {
			counts[v]++
		}
	}
	want := float64(trials) * float64(k) / float64(n)
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 0.05*want {
			t.Errorf("index %d sampled %d times, want ~%v", i, c, want)
		}
	}
}
