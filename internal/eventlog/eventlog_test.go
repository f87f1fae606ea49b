package eventlog

import (
	"bytes"
	"math"
	"strings"
	"sync"
	"testing"
)

func TestRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	l := New(&buf)
	events := []Event{
		{Time: 1, Kind: KindRound, Scheduler: "CCSA", Cost: 42.5, Devices: 7, Sessions: 2},
		{Time: 2, Kind: KindCharge, Charger: "c1", Cost: 30, EnergyJ: 500, Devices: 3},
		{Time: 3, Kind: KindDeath, Node: "n4"},
	}
	for _, e := range events {
		if err := l.Log(e); err != nil {
			t.Fatal(err)
		}
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(events) {
		t.Fatalf("read %d events", len(got))
	}
	for i := range events {
		if got[i] != events[i] {
			t.Errorf("event %d = %+v, want %+v", i, got[i], events[i])
		}
	}
}

func TestNilLoggerIsNoop(t *testing.T) {
	var l *Logger
	if err := l.Log(Event{Kind: KindRound}); err != nil {
		t.Errorf("nil logger Log = %v", err)
	}
}

func TestConcurrentLogging(t *testing.T) {
	var buf bytes.Buffer
	l := New(&buf)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				_ = l.Log(Event{Time: float64(i), Kind: KindCharge, Devices: g})
			}
		}(g)
	}
	wg.Wait()
	events, err := Read(&buf)
	if err != nil {
		t.Fatalf("interleaved writes corrupted the stream: %v", err)
	}
	if len(events) != 400 {
		t.Errorf("read %d events, want 400", len(events))
	}
}

func TestReadErrors(t *testing.T) {
	if _, err := Read(strings.NewReader("{broken\n")); err == nil {
		t.Error("broken JSON should error")
	}
	events, err := Read(strings.NewReader("\n\n"))
	if err != nil || len(events) != 0 {
		t.Errorf("blank lines: %v, %d events", err, len(events))
	}
}

func TestFilterAndTotalCost(t *testing.T) {
	events := []Event{
		{Kind: KindRound, Cost: 10},
		{Kind: KindCharge, Cost: 7},
		{Kind: KindRound, Cost: 5},
	}
	if got := Filter(events, KindRound); len(got) != 2 {
		t.Errorf("Filter = %d events", len(got))
	}
	if got := TotalCost(events, KindRound); math.Abs(got-15) > 1e-12 {
		t.Errorf("TotalCost = %v", got)
	}
}
