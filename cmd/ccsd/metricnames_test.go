package main

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/router"
)

// metricNameViolations lints the # TYPE lines of a Prometheus exposition
// against the repo's naming convention: a family ends in _total if and
// only if it is a counter, and every _seconds family is a histogram. (A
// family under two types cannot be registered: obs panics on the clash.)
func metricNameViolations(exposition string) []string {
	var bad []string
	for _, line := range strings.Split(exposition, "\n") {
		f := strings.Fields(line)
		if len(f) != 4 || f[0] != "#" || f[1] != "TYPE" {
			continue
		}
		name, typ := f[2], f[3]
		if strings.HasSuffix(name, "_total") != (typ == "counter") {
			bad = append(bad, fmt.Sprintf("%s is a %s: a name ends in _total if and only if it is a counter", name, typ))
		}
		if strings.HasSuffix(name, "_seconds") && typ != "histogram" {
			bad = append(bad, fmt.Sprintf("%s is a %s: a _seconds family must be a histogram", name, typ))
		}
	}
	sort.Strings(bad)
	return bad
}

func exposition(t *testing.T, reg *obs.Registry) string {
	t.Helper()
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

// TestMetricNamesFollowConvention lints every family a fully registered
// ccsd server (both cache tiers and the session protocol on) and a
// router export.
func TestMetricNamesFollowConvention(t *testing.T) {
	ccsd := obs.NewRegistry()
	if _, err := newSolveServer(serveOpts{cacheSize: 4, maxSessions: 4, reg: ccsd}); err != nil {
		t.Fatal(err)
	}
	fleet := obs.NewRegistry()
	rt, err := router.New(router.Config{Backends: []string{"127.0.0.1:1"}, CacheSize: 4, Reg: fleet})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	for name, reg := range map[string]*obs.Registry{"ccsd": ccsd, "ccsrouter": fleet} {
		out := exposition(t, reg)
		if n := strings.Count(out, "# TYPE "+name+"_"); n < 10 {
			t.Errorf("%s exports %d families; the server was not fully registered:\n%s", name, n, out)
		}
		for _, v := range metricNameViolations(out) {
			t.Errorf("%s: %s", name, v)
		}
	}
}

// TestMetricNameLintFlagsViolations holds the lint to a planted registry
// that breaks each rule once, alongside names that keep them.
func TestMetricNameLintFlagsViolations(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Counter("ok_total")
	reg.Gauge("ok_entries")
	reg.Histogram("ok_seconds", obs.DefaultLatencyBuckets)
	reg.Counter("bad_requests")                                  // counter without _total
	reg.GaugeFunc("bad_open_total", func() float64 { return 0 }) // _total on a gauge
	reg.Gauge("bad_wait_seconds")                                // _seconds not a histogram
	got := metricNameViolations(exposition(t, reg))
	want := []string{
		"bad_open_total is a gauge: a name ends in _total if and only if it is a counter",
		"bad_requests is a counter: a name ends in _total if and only if it is a counter",
		"bad_wait_seconds is a gauge: a _seconds family must be a histogram",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("lint flagged:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}
