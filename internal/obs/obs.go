// Package obs is the repo's std-lib-only telemetry layer: an atomic,
// allocation-free metric registry (counters, gauges, fixed-bucket
// histograms) with Prometheus text exposition, pipeline stage spans, and
// request-trace propagation helpers.
//
// Hot paths hold pre-registered instrument handles and touch only atomics
// when recording — registration cost (locking, map lookups, label
// rendering) is paid once at wiring time, never per observation. Dynamic
// label sets that only exist at scrape time (fault-injection site counts,
// per-backend fallback maps, cluster peer states) register a collector
// instead: a callback the exporter invokes on each scrape.
//
// Registry ownership mirrors object ownership. Process-wide pipeline and
// solver instruments live in the Default registry (registered from package
// init functions, so names are unique per process); per-instance state —
// an engine's cache counters, a server's admission counters — lives in a
// registry owned by that instance, so tests can build many engines in one
// process without metric-name collisions. GET /metrics concatenates the
// registries; their name prefixes are disjoint by convention (see
// DESIGN.md's metric table).
package obs

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Label is one name="value" pair attached to a metric series.
type Label struct {
	Key   string
	Value string
}

// L is shorthand for constructing a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// Counter is a monotonically increasing counter. The zero value is unusable;
// obtain handles from Registry.Counter.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Reset zeroes the counter. Exposed for test/bench harnesses (engine.Reset);
// production code never resets counters.
func (c *Counter) Reset() { c.v.Store(0) }

// Gauge is a float64 gauge updated via atomic CAS on the value's bits, the
// same lock-free pattern as the service latency EWMA.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adds delta with a CAS loop.
func (g *Gauge) Add(delta float64) {
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram is a fixed-bucket cumulative histogram. Observe is lock-free
// and allocation-free: a linear scan over the (short, shared, immutable)
// bound slice, three atomic adds, and a CAS loop for the float sum.
type Histogram struct {
	bounds []float64       // upper bounds, ascending; +Inf implied after the last
	counts []atomic.Uint64 // len(bounds)+1; counts[i] observations in bucket i (non-cumulative)
	count  atomic.Uint64
	sum    Gauge
}

// Observe records v.
func (h *Histogram) Observe(v float64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return h.sum.Value() }

// snapshot returns per-bucket cumulative counts (ending with the +Inf
// bucket), the total count, and the sum, each read once.
func (h *Histogram) snapshot() (cum []uint64, count uint64, sum float64) {
	cum = make([]uint64, len(h.counts))
	var acc uint64
	for i := range h.counts {
		acc += h.counts[i].Load()
		cum[i] = acc
	}
	return cum, h.count.Load(), h.sum.Value()
}

// LatencyBuckets spans 100µs to 10s — wide enough for a cache hit on one
// end and a degraded dense-LU solve on the other.
var LatencyBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
	0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// IterationBuckets covers iterative-solver iteration counts from one-step
// convergence to the 40k iteration cap of the Krylov solvers.
var IterationBuckets = []float64{1, 2, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000, 40000}

// Kind identifies a metric family's type in the exposition output.
type Kind int

const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	default:
		return "untyped"
	}
}

// Emit is the callback handed to collectors: it appends one sample with
// the given label set to the scrape in progress.
type Emit func(value float64, labels ...Label)

// series is one labeled sample within a family.
type series struct {
	labels string // rendered `k1="v1",k2="v2"`; "" when unlabeled
	c      *Counter
	g      *Gauge
	h      *Histogram
	fn     func() float64 // CounterFunc/GaugeFunc families
}

// family is one metric name with its help, type, and series.
type family struct {
	name    string
	help    string
	kind    Kind
	bounds  []float64 // histogram families
	series  []*series
	byLabel map[string]*series
	collect func(Emit) // dynamic families; series rebuilt per scrape
}

// Registry holds metric families and renders them in Prometheus text
// exposition format. Registration is mutex-guarded and idempotent per
// (name, labels); recording through returned handles is lock-free.
type Registry struct {
	mu   sync.Mutex
	fams map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{fams: make(map[string]*family)}
}

var defaultRegistry = NewRegistry()

// Default returns the process-global registry holding pipeline-stage,
// solver-backend, and other process-wide instruments.
func Default() *Registry { return defaultRegistry }

// validName reports whether name matches the Prometheus metric/label name
// grammar [a-zA-Z_:][a-zA-Z0-9_:]* (labels additionally may not contain ':',
// which callers here never use anyway).
func validName(name string) bool {
	if name == "" {
		return false
	}
	for i, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_', r == ':':
		case r >= '0' && r <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// renderLabels renders a label set as `k1="v1",k2="v2"` with values
// escaped per the exposition format. Labels are kept in the order given —
// callers register a family's series with a consistent key order.
func renderLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	out := make([]byte, 0, 32)
	for i, l := range labels {
		if !validName(l.Key) {
			panic(fmt.Sprintf("obs: invalid label name %q", l.Key))
		}
		if i > 0 {
			out = append(out, ',')
		}
		out = append(out, l.Key...)
		out = append(out, '=', '"')
		out = appendEscaped(out, l.Value)
		out = append(out, '"')
	}
	return string(out)
}

// appendEscaped escapes a label value: backslash, double quote, and
// newline must be escaped per the text format.
func appendEscaped(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '\\':
			dst = append(dst, '\\', '\\')
		case '"':
			dst = append(dst, '\\', '"')
		case '\n':
			dst = append(dst, '\\', 'n')
		default:
			dst = append(dst, s[i])
		}
	}
	return dst
}

// getFamily returns the family for name, creating it if absent, and
// panics on a kind conflict — two call sites disagreeing about a metric's
// type is a wiring bug worth failing fast on.
func (r *Registry) getFamily(name, help string, kind Kind, bounds []float64) *family {
	if !validName(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
	f, ok := r.fams[name]
	if !ok {
		f = &family{name: name, help: help, kind: kind, bounds: bounds, byLabel: make(map[string]*series)}
		r.fams[name] = f
		return f
	}
	if f.kind != kind {
		panic(fmt.Sprintf("obs: metric %q re-registered as %v (was %v)", name, kind, f.kind))
	}
	return f
}

// Counter registers (or finds) a counter series and returns its handle.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.getFamily(name, help, KindCounter, nil)
	key := renderLabels(labels)
	if s, ok := f.byLabel[key]; ok {
		return s.c
	}
	s := &series{labels: key, c: &Counter{}}
	f.byLabel[key] = s
	f.series = append(f.series, s)
	return s.c
}

// Gauge registers (or finds) a gauge series and returns its handle.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.getFamily(name, help, KindGauge, nil)
	key := renderLabels(labels)
	if s, ok := f.byLabel[key]; ok {
		return s.g
	}
	s := &series{labels: key, g: &Gauge{}}
	f.byLabel[key] = s
	f.series = append(f.series, s)
	return s.g
}

// Histogram registers (or finds) a histogram series with the given bucket
// upper bounds (ascending; +Inf is implicit) and returns its handle. All
// series of one family share the first registration's bounds.
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...Label) *Histogram {
	if len(bounds) == 0 {
		panic(fmt.Sprintf("obs: histogram %q needs at least one bucket bound", name))
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("obs: histogram %q bounds not ascending", name))
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.getFamily(name, help, KindHistogram, bounds)
	key := renderLabels(labels)
	if s, ok := f.byLabel[key]; ok {
		return s.h
	}
	s := &series{labels: key, h: &Histogram{bounds: f.bounds, counts: make([]atomic.Uint64, len(f.bounds)+1)}}
	f.byLabel[key] = s
	f.series = append(f.series, s)
	return s.h
}

// CounterFunc registers a counter series whose value is read from fn at
// scrape time — for existing atomic counters owned elsewhere (solver
// fallback totals, GC cycle counts) that should not move into the registry.
func (r *Registry) CounterFunc(name, help string, fn func() float64, labels ...Label) {
	r.registerFunc(name, help, KindCounter, fn, labels)
}

// GaugeFunc registers a gauge series read from fn at scrape time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	r.registerFunc(name, help, KindGauge, fn, labels)
}

func (r *Registry) registerFunc(name, help string, kind Kind, fn func() float64, labels []Label) {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.getFamily(name, help, kind, nil)
	key := renderLabels(labels)
	if _, ok := f.byLabel[key]; ok {
		return
	}
	s := &series{labels: key, fn: fn}
	f.byLabel[key] = s
	f.series = append(f.series, s)
}

// SetCollector registers (or replaces) a dynamic family: collect is
// invoked on every scrape and emits the family's current sample set. Use
// for label sets unknown until runtime — fault-injection site counts,
// per-backend fallback maps, cluster peer states. Only counter and gauge
// collectors are supported.
func (r *Registry) SetCollector(name, help string, kind Kind, collect func(Emit)) {
	if kind == KindHistogram {
		panic("obs: histogram collectors are not supported")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.getFamily(name, help, kind, nil)
	f.collect = collect
}

// MetricNames returns the sorted family names currently registered.
func (r *Registry) MetricNames() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.fams))
	for name := range r.fams {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}
