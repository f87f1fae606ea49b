// Package obs is the repo's dependency-free observability layer: a
// metrics registry of counters, gauges and fixed-bucket histograms with
// Prometheus text exposition, plus a structured key=value event logger
// (eventlog.go). It exists so the long-running paths — the ccsd solve
// service and the online scheduling loop — can report what they are
// doing without pulling in a client library.
//
// The whole API is nil-safe by design: a nil *Registry hands out nil
// instruments, and every instrument method no-ops on a nil receiver.
// Instrumented code therefore carries no "is observability on?" checks,
// and the disabled path costs one predictable nil test per call site.
package obs

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing count. The zero value is ready
// to use; a nil *Counter ignores updates.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current count (0 on nil).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a value that can go up and down. The zero value reads 0; a
// nil *Gauge ignores updates.
type Gauge struct {
	bits atomic.Uint64 // math.Float64bits of the current value
}

// Add shifts the value by delta (use a negative delta to decrement).
func (g *Gauge) Add(delta float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current value (0 on nil).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram accumulates observations into fixed buckets (cumulative
// counts at exposition, Prometheus-style). A nil *Histogram ignores
// observations.
type Histogram struct {
	bounds []float64       // ascending upper bounds; +Inf is implicit
	counts []atomic.Uint64 // len(bounds)+1, non-cumulative per bucket
	count  atomic.Uint64
	sum    atomic.Uint64 // math.Float64bits, CAS-accumulated
}

// DefaultLatencyBuckets spans sub-millisecond cache hits to multi-second
// cold solves, in seconds.
var DefaultLatencyBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
	0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of observations (0 on nil).
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observations (0 on nil).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// kind discriminates what a registered metric exposes.
type kind int

const (
	kindCounter kind = iota
	kindGauge
	kindHistogram
	kindCounterFunc
	kindGaugeFunc
)

func (k kind) promType() string {
	switch k {
	case kindCounter, kindCounterFunc:
		return "counter"
	case kindGauge, kindGaugeFunc:
		return "gauge"
	default:
		return "histogram"
	}
}

// metric is one registered (name, labels) series.
type metric struct {
	name   string
	labels string // rendered `k="v",k2="v2"` or ""
	kind   kind
	c      *Counter
	g      *Gauge
	h      *Histogram
	fn     func() float64
}

// Registry holds named metrics and renders them in the Prometheus text
// format. All methods are safe for concurrent use, and all lookup
// methods are idempotent: re-registering the same (name, labels) returns
// the existing instrument. A nil *Registry returns nil instruments, so
// disabled observability needs no call-site guards.
type Registry struct {
	mu       sync.Mutex
	metrics  map[string]*metric
	families map[string]kind // each family's kind, whatever its labels
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{metrics: make(map[string]*metric), families: make(map[string]kind)}
}

// renderLabels turns variadic k1, v1, k2, v2 pairs into a canonical
// sorted `k1="v1",k2="v2"` string. Odd trailing keys get an empty value
// rather than panicking — instrumentation must never take the service
// down.
func renderLabels(kv []string) string {
	if len(kv) == 0 {
		return ""
	}
	type pair struct{ k, v string }
	pairs := make([]pair, 0, (len(kv)+1)/2)
	for i := 0; i < len(kv); i += 2 {
		p := pair{k: kv[i]}
		if i+1 < len(kv) {
			p.v = kv[i+1]
		}
		pairs = append(pairs, p)
	}
	sort.Slice(pairs, func(a, b int) bool { return pairs[a].k < pairs[b].k })
	var sb strings.Builder
	for i, p := range pairs {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(p.k)
		sb.WriteString(`=`)
		sb.WriteString(strconv.Quote(p.v))
	}
	return sb.String()
}

// lookup returns the metric registered under (name, labels), creating it
// with build on first use. Re-registering with a different kind, or a new
// label set under a family already exported as another Prometheus type,
// panics: that is a programming error, not a runtime condition.
func (r *Registry) lookup(name string, labels []string, k kind, build func() *metric) *metric {
	ls := renderLabels(labels)
	key := name + "{" + ls + "}"
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.metrics[key]; ok {
		if m.kind != k {
			panic(fmt.Sprintf("obs: metric %s re-registered as %s (was %s)", key, k.promType(), m.kind.promType()))
		}
		return m
	}
	if fk, ok := r.families[name]; ok && fk.promType() != k.promType() {
		panic(fmt.Sprintf("obs: metric %s registered as %s (family %s is a %s)", key, k.promType(), name, fk.promType()))
	}
	m := build()
	m.name, m.labels, m.kind = name, ls, k
	r.metrics[key] = m
	r.families[name] = k
	return m
}

// Counter returns the counter registered under name and the given
// label key/value pairs, creating it on first use. Nil registry → nil.
func (r *Registry) Counter(name string, labels ...string) *Counter {
	if r == nil {
		return nil
	}
	return r.lookup(name, labels, kindCounter, func() *metric { return &metric{c: &Counter{}} }).c
}

// Gauge returns the gauge registered under name and labels, creating it
// on first use. Nil registry → nil.
func (r *Registry) Gauge(name string, labels ...string) *Gauge {
	if r == nil {
		return nil
	}
	return r.lookup(name, labels, kindGauge, func() *metric { return &metric{g: &Gauge{}} }).g
}

// Histogram returns the histogram registered under name and labels,
// creating it with the given ascending bucket upper bounds on first use
// (later calls reuse the first call's buckets). Nil registry → nil.
func (r *Registry) Histogram(name string, bounds []float64, labels ...string) *Histogram {
	if r == nil {
		return nil
	}
	return r.lookup(name, labels, kindHistogram, func() *metric {
		b := append([]float64(nil), bounds...)
		sort.Float64s(b)
		return &metric{h: &Histogram{bounds: b, counts: make([]atomic.Uint64, len(b)+1)}}
	}).h
}

// CounterFunc registers a counter whose value is read from fn at
// exposition time — the bridge for components that already keep their
// own cumulative counters (e.g. instcache.Stats). fn must be safe for
// concurrent use. No-op on a nil registry.
func (r *Registry) CounterFunc(name string, fn func() float64, labels ...string) {
	if r == nil {
		return
	}
	r.lookup(name, labels, kindCounterFunc, func() *metric { return &metric{fn: fn} })
}

// GaugeFunc registers a gauge read from fn at exposition time. fn must
// be safe for concurrent use. No-op on a nil registry.
func (r *Registry) GaugeFunc(name string, fn func() float64, labels ...string) {
	if r == nil {
		return
	}
	r.lookup(name, labels, kindGaugeFunc, func() *metric { return &metric{fn: fn} })
}

// formatValue renders a sample in the shortest exact form.
func formatValue(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WritePrometheus renders every registered metric in the Prometheus text
// exposition format, sorted by name then label set, with one # TYPE
// comment per metric family. Nil registry writes nothing.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	ms := make([]*metric, 0, len(r.metrics))
	for _, m := range r.metrics {
		ms = append(ms, m)
	}
	r.mu.Unlock()
	sort.Slice(ms, func(a, b int) bool {
		if ms[a].name != ms[b].name {
			return ms[a].name < ms[b].name
		}
		return ms[a].labels < ms[b].labels
	})
	var sb strings.Builder
	lastFamily := ""
	for _, m := range ms {
		if m.name != lastFamily {
			fmt.Fprintf(&sb, "# TYPE %s %s\n", m.name, m.kind.promType())
			lastFamily = m.name
		}
		series := m.name
		if m.labels != "" {
			series += "{" + m.labels + "}"
		}
		switch m.kind {
		case kindCounter:
			fmt.Fprintf(&sb, "%s %d\n", series, m.c.Value())
		case kindGauge:
			fmt.Fprintf(&sb, "%s %s\n", series, formatValue(m.g.Value()))
		case kindCounterFunc, kindGaugeFunc:
			fmt.Fprintf(&sb, "%s %s\n", series, formatValue(m.fn()))
		case kindHistogram:
			writeHistogram(&sb, m)
		}
	}
	_, err := io.WriteString(w, sb.String())
	return err
}

// writeHistogram renders the cumulative _bucket/_sum/_count triplet.
func writeHistogram(sb *strings.Builder, m *metric) {
	h := m.h
	withLabel := func(le string) string {
		ls := m.labels
		if ls != "" {
			ls += ","
		}
		return m.name + `_bucket{` + ls + `le="` + le + `"}`
	}
	suffix := func(s string) string {
		out := m.name + s
		if m.labels != "" {
			out += "{" + m.labels + "}"
		}
		return out
	}
	var cum uint64
	for i, b := range h.bounds {
		cum += h.counts[i].Load()
		fmt.Fprintf(sb, "%s %d\n", withLabel(formatValue(b)), cum)
	}
	cum += h.counts[len(h.bounds)].Load()
	fmt.Fprintf(sb, "%s %d\n", withLabel("+Inf"), cum)
	fmt.Fprintf(sb, "%s %s\n", suffix("_sum"), formatValue(h.Sum()))
	fmt.Fprintf(sb, "%s %d\n", suffix("_count"), h.Count())
}

// Handler serves the registry as a text/plain Prometheus scrape
// endpoint. A nil registry serves an empty (still valid) page.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WritePrometheus(w)
	})
}
