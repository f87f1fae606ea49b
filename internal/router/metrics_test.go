package router

import (
	"strings"
	"testing"

	"repro/internal/obs"
)

// TestReplayEntriesIsGauge pins the replay tier's size as a gauge: it
// shrinks on eviction, and Prometheus treats a counter that goes down as
// a restart.
func TestReplayEntriesIsGauge(t *testing.T) {
	reg := obs.NewRegistry()
	rt, err := New(Config{Backends: []string{"127.0.0.1:1"}, CacheSize: 4, Reg: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "# TYPE ccsrouter_replay_entries gauge\n") {
		t.Errorf("ccsrouter_replay_entries is not exported as a gauge:\n%s", out)
	}
	if !strings.Contains(out, "\nccsrouter_replay_entries 0\n") {
		t.Errorf("ccsrouter_replay_entries sample missing:\n%s", out)
	}
}
