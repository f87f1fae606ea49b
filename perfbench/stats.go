package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/json"
	"os"
	"runtime"
	rtmetrics "runtime/metrics"
	"sort"
	"time"
)

// percentile returns the q-quantile (0..1) of xs by linear interpolation
// between closest ranks; xs need not be sorted.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// window is one closed-loop timed window, cut into blocks of a fixed
// number of ops.
type window struct {
	latMS   []float64 // per-op latency as the client sees it
	marks   []mark    // block boundaries, the first at the window start
	elapsed time.Duration
}

// mark is one block boundary: the index of the next op, the time since
// the window started, and the measured process's CPU time.
type mark struct {
	op  int
	at  time.Duration
	cpu time.Duration
	ref time.Duration
}

func (w window) ops() int { return len(w.latMS) }

// closedLoop runs op(k) for k = 0, 1, ... until the window has lasted
// seconds and at least minOps ops ran; each op starts when the previous
// one returned. Every blockOps ops it marks a block boundary, sampling
// cpu when it is non-nil. A workload's block is a whole number of its
// op cycles, so the ops up to the last boundary send every op of a
// cycle equally often. An op error aborts the window.
func closedLoop(seconds float64, minOps, blockOps int, cpu func() (time.Duration, error), op func(k int) error) (window, error) {
	var w window
	// Collect the garbage of input generation now, not mid-window.
	runtime.GC()
	limit := time.Duration(seconds * float64(time.Second))
	start := time.Now()
	for k := 0; ; k++ {
		now := time.Since(start)
		if k%blockOps == 0 {
			m := mark{op: k, at: now, ref: refKernel()}
			if cpu != nil {
				c, err := cpu()
				if err != nil {
					return w, err
				}
				m.cpu = c
			}
			w.marks = append(w.marks, m)
		}
		if k >= minOps && now >= limit {
			break
		}
		t0 := time.Now()
		if err := op(k); err != nil {
			return w, err
		}
		w.latMS = append(w.latMS, float64(time.Since(t0).Nanoseconds())/1e6)
	}
	w.elapsed = time.Since(start)
	return w, nil
}

// setLatency records the throughput, latency percentiles and CPU per op
// over the whole blocks of a window. The host's other tenants slow it
// by up to 1.7x in stretches of seconds; figures over the whole window
// move in proportion to the share of it they slowed, where a median
// over blocks jumped between the two speeds as that share crossed half.
func setLatency(rep *report, w window) {
	first, last := w.marks[0], w.marks[len(w.marks)-1]
	n := last.op - first.op
	lat := w.latMS[first.op:last.op]
	rep.metrics.set("throughput_per_s", float64(n)/(last.at-first.at).Seconds(), "1/s")
	rep.metrics.set("latency_p50_ms", median(lat), "ms")
	rep.metrics.set("latency_p90_ms", percentile(lat, 0.9), "ms")
	rep.metrics.set("cpu_ms_per_op", float64((last.cpu-first.cpu).Nanoseconds())/1e6/float64(n), "ms")
	rep.info["samples"] = n
	rep.info["blocks"] = len(w.marks) - 1
	var refs []float64
	for _, m := range w.marks {
		refs = append(refs, float64(m.ref.Nanoseconds())/1e6)
	}
	rep.info["ref_ms"] = median(refs)
	rep.info["window_s"] = w.elapsed.Seconds()
	rep.info["window_latency_p99_ms"] = percentile(lat, 0.99)
}

// span is one timed interval of the traced run: an op's client-side
// request or one of the in-process layer calls replayed after it.
type span struct {
	Op     int    `json:"op"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for an op's root span
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer started
	End    int64  `json:"end_ns"`
}

// tracer keeps every span in memory until write.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// record appends a finished span and returns its ID.
func (t *tracer) record(op, parent int, name string, start, end time.Time) int {
	id := len(t.spans)
	t.spans = append(t.spans, span{Op: op, ID: id, Parent: parent, Name: name,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds()})
	return id
}

// timed runs fn as a child span of parent and returns its duration.
func (t *tracer) timed(op, parent int, name string, fn func()) time.Duration {
	start := time.Now()
	fn()
	end := time.Now()
	t.record(op, parent, name, start, end)
	return end.Sub(start)
}

// meanUS is the mean duration of the spans named name, µs.
func (t *tracer) meanUS(name string) float64 {
	var sum float64
	var n int
	for _, s := range t.spans {
		if s.Name == name {
			sum += float64(s.End - s.Start)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n) / 1e3
}

// spanDurationsMS returns the durations of the last n spans named name.
func spanDurationsMS(tr *tracer, name string, n int) []float64 {
	var out []float64
	for i := len(tr.spans) - 1; i >= 0 && len(out) < n; i-- {
		if s := tr.spans[i]; s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e6)
		}
	}
	return out
}

// overheadPct compares the median latency of traced and untraced ops.
func overheadPct(traced, untraced []float64) float64 {
	return 100 * (median(traced)/median(untraced) - 1)
}

// write dumps every span as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			_ = f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}

// memSample reads this process's cumulative heap allocation counters
// and GC cycle count without stopping the world.
type memSample struct{ objects, bytes, gcs uint64 }

var memMetricNames = []string{"/gc/heap/allocs:objects", "/gc/heap/allocs:bytes", "/gc/cycles/total:gc-cycles"}

func readMem() memSample {
	s := make([]rtmetrics.Sample, len(memMetricNames))
	for i, n := range memMetricNames {
		s[i].Name = n
	}
	rtmetrics.Read(s)
	return memSample{objects: s[0].Value.Uint64(), bytes: s[1].Value.Uint64(), gcs: s[2].Value.Uint64()}
}

var refBuf = make([]byte, 1<<20)

// refKernel times a fixed SHA-256 pass over 1 MiB, best of three.
func refKernel() time.Duration {
	best := time.Hour
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		sha256.Sum256(refBuf)
		if d := time.Since(t0); d < best {
			best = d
		}
	}
	return best
}
