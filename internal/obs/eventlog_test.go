package obs

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func fixedClock() func() time.Time {
	ts := time.Date(2026, 8, 5, 12, 0, 0, 0, time.UTC)
	return func() time.Time { return ts }
}

func TestEventLoggerFormat(t *testing.T) {
	var sb strings.Builder
	l := NewEventLogger(&sb)
	l.now = fixedClock()
	l.Event("slow_solve", "scheduler", "CCSA", "elapsed", 1250*time.Millisecond, "cached", false)
	want := `ts=2026-08-05T12:00:00Z event=slow_solve scheduler=CCSA elapsed=1.25s cached=false` + "\n"
	if sb.String() != want {
		t.Errorf("line = %q, want %q", sb.String(), want)
	}
}

func TestEventLoggerQuoting(t *testing.T) {
	var sb strings.Builder
	l := NewEventLogger(&sb)
	l.now = fixedClock()
	l.Event("err", "msg", `read failed: "boom"`, "empty", "", "odd")
	out := sb.String()
	for _, want := range []string{
		`msg="read failed: \"boom\""`,
		`empty=""`,
		` odd=`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("line %q missing %q", out, want)
		}
	}
	if strings.Count(out, "\n") != 1 {
		t.Errorf("line %q not single-line", out)
	}
}

func TestEventLoggerConcurrent(t *testing.T) {
	var sb strings.Builder
	var mu sync.Mutex
	l := NewEventLogger(syncWriter{&mu, &sb})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				l.Event("tick", "worker", g, "i", i)
			}
		}(g)
	}
	wg.Wait()
	mu.Lock()
	lines := strings.Split(strings.TrimSuffix(sb.String(), "\n"), "\n")
	mu.Unlock()
	if len(lines) != 800 {
		t.Fatalf("wrote %d lines, want 800", len(lines))
	}
	for _, line := range lines {
		if !strings.Contains(line, "event=tick") {
			t.Fatalf("interleaved/corrupt line %q", line)
		}
	}
}

// syncWriter makes a strings.Builder safe to share between the logger
// and the test's final read.
type syncWriter struct {
	mu *sync.Mutex
	sb *strings.Builder
}

func (w syncWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.sb.Write(p)
}
