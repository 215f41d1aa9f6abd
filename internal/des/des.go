// Package des is a small discrete-event simulation kernel: a binary-heap
// future event list with stable ordering, cancellable events, and
// reproducible pseudo-random streams. The Monte Carlo full-system simulator
// (package sim) is built on it.
package des

import (
	"container/heap"
	"fmt"
	"math"
	"math/rand"
)

// Handler is the callback invoked when an event fires.
type Handler func(now float64)

// Event is a scheduled occurrence. It is returned by Schedule so callers
// can cancel it.
type Event struct {
	time    float64
	seq     uint64 // tie-break: FIFO among equal-time events
	index   int    // heap index; -1 once removed
	handler Handler
	name    string
}

// Time returns the scheduled firing time.
func (e *Event) Time() float64 { return e.time }

// Name returns the diagnostic label given at scheduling.
func (e *Event) Name() string { return e.name }

// Cancelled reports whether the event was cancelled or already fired.
func (e *Event) Cancelled() bool { return e.index == -1 }

type eventQueue []*Event

func (q eventQueue) Len() int { return len(q) }
func (q eventQueue) Less(i, j int) bool {
	if q[i].time != q[j].time {
		return q[i].time < q[j].time
	}
	return q[i].seq < q[j].seq
}
func (q eventQueue) Swap(i, j int) {
	q[i], q[j] = q[j], q[i]
	q[i].index = i
	q[j].index = j
}
func (q *eventQueue) Push(x any) {
	e := x.(*Event)
	e.index = len(*q)
	*q = append(*q, e)
}
func (q *eventQueue) Pop() any {
	old := *q
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	e.index = -1
	*q = old[:n-1]
	return e
}

// Simulator owns the clock and the future event list.
type Simulator struct {
	now    float64
	queue  eventQueue
	seq    uint64
	fired  uint64
	halted bool
}

// New returns a simulator with the clock at zero.
func New() *Simulator { return &Simulator{} }

// Now returns the current simulation time.
func (s *Simulator) Now() float64 { return s.now }

// Fired returns the number of events executed so far.
func (s *Simulator) Fired() uint64 { return s.fired }

// Pending returns the number of events still scheduled.
func (s *Simulator) Pending() int { return len(s.queue) }

// Schedule enqueues handler to run at absolute time t (>= Now). The name is
// used in diagnostics only.
func (s *Simulator) Schedule(t float64, name string, handler Handler) *Event {
	if math.IsNaN(t) || t < s.now {
		panic(fmt.Sprintf("des: schedule %q at %v before now %v", name, t, s.now))
	}
	if handler == nil {
		panic("des: nil handler")
	}
	e := &Event{time: t, seq: s.seq, handler: handler, name: name}
	s.seq++
	heap.Push(&s.queue, e)
	return e
}

// ScheduleAfter enqueues handler to run delay seconds from now.
func (s *Simulator) ScheduleAfter(delay float64, name string, handler Handler) *Event {
	if delay < 0 {
		panic(fmt.Sprintf("des: negative delay %v for %q", delay, name))
	}
	return s.Schedule(s.now+delay, name, handler)
}

// Cancel removes a scheduled event; cancelling a fired or already-cancelled
// event is a no-op.
func (s *Simulator) Cancel(e *Event) {
	if e == nil || e.index == -1 {
		return
	}
	heap.Remove(&s.queue, e.index)
	e.index = -1
}

// Halt stops the run loop after the current event returns.
func (s *Simulator) Halt() { s.halted = true }

// Run executes events in order until the queue empties, the horizon is
// passed, or Halt is called. It returns the final clock value. Events
// scheduled beyond the horizon remain queued.
func (s *Simulator) Run(horizon float64) float64 {
	s.halted = false
	for len(s.queue) > 0 && !s.halted {
		e := s.queue[0]
		if e.time > horizon {
			break
		}
		heap.Pop(&s.queue)
		s.now = e.time
		s.fired++
		e.handler(s.now)
	}
	if s.now < horizon && len(s.queue) == 0 && !s.halted {
		// Advance the clock to the horizon for time-based statistics; a
		// halted run stops at the halting event's time.
		s.now = horizon
	}
	return s.now
}

// RunUntilEmpty executes all events regardless of time.
func (s *Simulator) RunUntilEmpty() float64 {
	return s.Run(math.Inf(1))
}

// --- Random variate streams ---

// Stream wraps a seeded PRNG with the variate generators the simulator
// needs. Distinct streams with distinct seeds decorrelate model components
// (attack process vs. IDS vs. mobility), a standard variance-reduction
// hygiene measure.
type Stream struct {
	*rand.Rand
}

// NewStream returns a reproducible stream for the given seed.
func NewStream(seed int64) *Stream {
	return &Stream{Rand: rand.New(rand.NewSource(seed))}
}

// Exp draws an exponential variate with the given rate (mean 1/rate).
func (st *Stream) Exp(rate float64) float64 {
	if rate <= 0 {
		panic(fmt.Sprintf("des: Exp rate %v <= 0", rate))
	}
	return st.ExpFloat64() / rate
}

// Uniform draws uniformly from [lo, hi).
func (st *Stream) Uniform(lo, hi float64) float64 {
	if hi < lo {
		panic(fmt.Sprintf("des: Uniform bounds [%v, %v) inverted", lo, hi))
	}
	return lo + (hi-lo)*st.Float64()
}

// Bernoulli returns true with probability p.
func (st *Stream) Bernoulli(p float64) bool {
	return st.Float64() < p
}

// Pick returns a uniformly chosen index in [0, n).
func (st *Stream) Pick(n int) int {
	if n <= 0 {
		panic("des: Pick from empty range")
	}
	return st.Intn(n)
}

// SampleWithoutReplacement returns k distinct indices drawn uniformly from
// [0, n) via a partial Fisher-Yates shuffle. k is capped at n.
func (st *Stream) SampleWithoutReplacement(n, k int) []int {
	if k > n {
		k = n
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	for i := 0; i < k; i++ {
		j := i + st.Intn(n-i)
		idx[i], idx[j] = idx[j], idx[i]
	}
	return idx[:k]
}
