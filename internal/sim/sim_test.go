package sim

import (
	"math"
	"testing"
)

func TestScheduleAndRunOrder(t *testing.T) {
	e := New()
	var got []int
	if err := e.Schedule(3, func() { got = append(got, 3) }); err != nil {
		t.Fatal(err)
	}
	if err := e.Schedule(1, func() { got = append(got, 1) }); err != nil {
		t.Fatal(err)
	}
	if err := e.Schedule(2, func() { got = append(got, 2) }); err != nil {
		t.Fatal(err)
	}
	if fired := e.RunUntil(3); fired != 3 {
		t.Fatalf("fired = %d", fired)
	}
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Errorf("order = %v", got)
	}
	if e.Now() != 3 {
		t.Errorf("Now = %v, want 3", e.Now())
	}
}

func TestEqualTimesFIFO(t *testing.T) {
	e := New()
	var got []int
	for i := 0; i < 5; i++ {
		i := i
		if err := e.Schedule(1, func() { got = append(got, i) }); err != nil {
			t.Fatal(err)
		}
	}
	e.RunUntil(1)
	for i, v := range got {
		if v != i {
			t.Fatalf("FIFO violated: %v", got)
		}
	}
}

func TestScheduleFromWithinEvent(t *testing.T) {
	e := New()
	var times []float64
	if err := e.Schedule(1, func() {
		times = append(times, e.Now())
		if err := e.Schedule(2, func() { times = append(times, e.Now()) }); err != nil {
			t.Error(err)
		}
	}); err != nil {
		t.Fatal(err)
	}
	e.RunUntil(3)
	if len(times) != 2 || times[0] != 1 || times[1] != 3 {
		t.Errorf("times = %v", times)
	}
}

func TestRunUntil(t *testing.T) {
	e := New()
	var got []float64
	for _, d := range []float64{1, 2, 3, 4} {
		d := d
		if err := e.Schedule(d, func() { got = append(got, d) }); err != nil {
			t.Fatal(err)
		}
	}
	if fired := e.RunUntil(2.5); fired != 2 {
		t.Fatalf("fired = %d, want 2", fired)
	}
	if e.Now() != 2.5 {
		t.Errorf("Now = %v, want 2.5", e.Now())
	}
	if fired := e.RunUntil(10); fired != 2 {
		t.Fatalf("second RunUntil fired = %d, want 2", fired)
	}
	if e.Now() != 10 {
		t.Errorf("Now = %v, want 10", e.Now())
	}
}

func TestScheduleValidation(t *testing.T) {
	e := New()
	if err := e.Schedule(-1, func() {}); err == nil {
		t.Error("negative delay should error")
	}
	if err := e.Schedule(math.NaN(), func() {}); err == nil {
		t.Error("NaN delay should error")
	}
	if err := e.Schedule(1, nil); err == nil {
		t.Error("nil fn should error")
	}
	e.RunUntil(5)
	if err := e.ScheduleAt(1, func() {}); err == nil {
		t.Error("scheduling in the past should error")
	}
}

func TestStepOnEmpty(t *testing.T) {
	e := New()
	if e.Step() {
		t.Error("Step on empty engine returned true")
	}
}
