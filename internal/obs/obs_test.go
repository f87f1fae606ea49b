package obs

import (
	"math"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeHistogramBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("requests_total")
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Errorf("counter = %d, want 5", c.Value())
	}
	if again := r.Counter("requests_total"); again != c {
		t.Error("re-registration returned a different counter")
	}

	g := r.Gauge("inflight")
	g.Add(3)
	g.Add(-1)
	if g.Value() != 2 {
		t.Errorf("gauge = %v, want 2", g.Value())
	}
	g.Add(5.5)
	if g.Value() != 7.5 {
		t.Errorf("gauge = %v, want 7.5", g.Value())
	}

	h := r.Histogram("latency_seconds", []float64{0.01, 0.1, 1})
	for _, v := range []float64{0.005, 0.01, 0.02, 0.5, 3} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Errorf("histogram count = %d, want 5", h.Count())
	}
	if math.Abs(h.Sum()-3.535) > 1e-12 {
		t.Errorf("histogram sum = %v, want 3.535", h.Sum())
	}
}

func TestLabeledSeriesAreDistinct(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("solves_total", "scheduler", "CCSA")
	b := r.Counter("solves_total", "scheduler", "CCSGA")
	if a == b {
		t.Fatal("different label values share a counter")
	}
	a.Inc()
	if b.Value() != 0 {
		t.Error("label isolation broken")
	}
	// Label order is canonicalized, so swapped pairs hit the same series.
	x := r.Gauge("g", "a", "1", "b", "2")
	y := r.Gauge("g", "b", "2", "a", "1")
	if x != y {
		t.Error("label order changed series identity")
	}
}

func TestKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("m")
	defer func() {
		if recover() == nil {
			t.Error("re-registering a counter as a gauge did not panic")
		}
	}()
	r.Gauge("m")
}

// TestFamilyTypeClashPanics pins that one family cannot be exported under
// two Prometheus types, even on disjoint label sets: the exposition has
// one # TYPE line per family.
func TestFamilyTypeClashPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("m_total", "tier", "a")
	r.CounterFunc("m_total", func() float64 { return 0 }, "tier", "b") // same type: fine
	defer func() {
		if recover() == nil {
			t.Error("registering a counter family's new label set as a gauge did not panic")
		}
	}()
	r.Gauge("m_total", "tier", "c")
}

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	r.Counter("zreq_total", "code", "200").Add(3)
	r.Counter("zreq_total", "code", "500").Add(1)
	r.Gauge("temp").Add(36.6)
	h := r.Histogram("lat", []float64{0.5, 1})
	h.Observe(0.2)
	h.Observe(0.7)
	h.Observe(9)
	r.GaugeFunc("cache_entries", func() float64 { return 42 }, "tier", "raw")
	r.CounterFunc("cache_hits_total", func() float64 { return 17 }, "tier", "raw")

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# TYPE zreq_total counter\n",
		`zreq_total{code="200"} 3` + "\n",
		`zreq_total{code="500"} 1` + "\n",
		"# TYPE temp gauge\ntemp 36.6\n",
		"# TYPE lat histogram\n",
		`lat_bucket{le="0.5"} 1` + "\n",
		`lat_bucket{le="1"} 2` + "\n",
		`lat_bucket{le="+Inf"} 3` + "\n",
		"lat_sum 9.9\n",
		"lat_count 3\n",
		`cache_entries{tier="raw"} 42` + "\n",
		`cache_hits_total{tier="raw"} 17` + "\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	// Families sort by name; the 200-series precedes the 500-series.
	if strings.Index(out, `code="200"`) > strings.Index(out, `code="500"`) {
		t.Error("series not sorted by label set")
	}
	// One TYPE line per family even with several series.
	if strings.Count(out, "# TYPE zreq_total") != 1 {
		t.Error("duplicate TYPE comment for a multi-series family")
	}
}

func TestHistogramBucketEdges(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("e", []float64{1, 2})
	h.Observe(1) // le="1" is inclusive
	h.Observe(1.5)
	h.Observe(100)
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		`e_bucket{le="1"} 1`,
		`e_bucket{le="2"} 2`,
		`e_bucket{le="+Inf"} 3`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}

// TestNilSafety pins the zero-cost-when-disabled contract: every method
// on a nil registry and nil instruments must be a silent no-op.
func TestNilSafety(t *testing.T) {
	var r *Registry
	c := r.Counter("x")
	g := r.Gauge("y")
	h := r.Histogram("z", []float64{1})
	if c != nil || g != nil || h != nil {
		t.Fatal("nil registry handed out non-nil instruments")
	}
	c.Inc()
	c.Add(3)
	g.Add(1)
	h.Observe(1)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Error("nil instruments accumulated values")
	}
	r.CounterFunc("f", func() float64 { return 1 })
	r.GaugeFunc("f2", func() float64 { return 1 })
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil || sb.Len() != 0 {
		t.Errorf("nil registry exposition = %q, %v", sb.String(), err)
	}

	var l *EventLogger
	l.Event("ignored", "k", "v")
}

func TestHandlerServesExposition(t *testing.T) {
	r := NewRegistry()
	r.Counter("hits_total").Add(2)
	rec := httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != 200 {
		t.Fatalf("status %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content type %q", ct)
	}
	if !strings.Contains(rec.Body.String(), "hits_total 2") {
		t.Errorf("body %q", rec.Body.String())
	}
}

// TestConcurrentInstruments exercises registration and updates from many
// goroutines; run under -race in CI.
func TestConcurrentInstruments(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				r.Counter("c_total", "worker", string(rune('a'+g%4))).Inc()
				r.Gauge("g").Add(1)
				r.Histogram("h", []float64{0.5, 1, 5}).Observe(float64(i % 7))
				if i%100 == 0 {
					var sb strings.Builder
					if err := r.WritePrometheus(&sb); err != nil {
						t.Errorf("exposition: %v", err)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	total := uint64(0)
	for _, w := range []string{"a", "b", "c", "d"} {
		total += r.Counter("c_total", "worker", w).Value()
	}
	if total != 8*500 {
		t.Errorf("counter total %d, want %d", total, 8*500)
	}
	if got := r.Gauge("g").Value(); got != 8*500 {
		t.Errorf("gauge = %v, want %d", got, 8*500)
	}
	if got := r.Histogram("h", nil).Count(); got != 8*500 {
		t.Errorf("histogram count = %d, want %d", got, 8*500)
	}
}
