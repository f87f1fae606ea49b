package core

import (
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"
)

// recycleBattery draws instances of every shape the pooled buffers must
// survive being reused across: stationary, capacitated and mobile with
// travel budgets, at sizes that grow and shrink from one to the next.
func recycleBattery(r *rand.Rand) []*Instance {
	var ins []*Instance
	for k := 0; k < 12; k++ {
		n, m := 3+r.Intn(40), 1+r.Intn(6)
		switch k % 3 {
		case 0:
			ins = append(ins, randInstance(r, n, m))
		case 1:
			ins = append(ins, warmInstance(r, n, m, true))
		default:
			ins = append(ins, randMobileInstance(r, n, m+1))
		}
	}
	return ins
}

// TestSolveOnceRecycleMatchesNewCostModel holds SolveOnce, whose cost
// model tables are pooled, to a fresh NewCostModel, Schedule and
// TotalCost: for every scheduler, over instances whose sizes move up and
// down so each pooled table is reused both larger and smaller, the
// schedule and the cost bits must agree.
func TestSolveOnceRecycleMatchesNewCostModel(t *testing.T) {
	r := rand.New(rand.NewSource(2727))
	scheds := []Scheduler{NoncoopScheduler{}, CCSGAScheduler{}, CCSGAScheduler{Opts: CCSGAOptions{Scheme: ESS{}}},
		CCSAScheduler{}, OptimalScheduler{}}
	for k, in := range recycleBattery(r) {
		for _, sched := range scheds {
			opt := sched.Name() == "OPT"
			if opt && (len(in.Devices) > 8 || in.Chargers[0].Mobile) {
				continue // OPT is exponential and rejects mobile instances
			}
			cm, err := NewCostModel(in)
			if err != nil {
				t.Fatal(err)
			}
			want, err := sched.Schedule(cm)
			if err != nil {
				if opt {
					continue
				}
				t.Fatal(err)
			}
			got, cost, err := SolveOnce(in, sched)
			if err != nil {
				t.Fatalf("instance %d %s: %v", k, sched.Name(), err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("instance %d %s: schedule %+v, fresh model %+v", k, sched.Name(), got, want)
			}
			if w := cm.TotalCost(want); math.Float64bits(cost) != math.Float64bits(w) {
				t.Fatalf("instance %d %s: cost %v, fresh model %v", k, sched.Name(), cost, w)
			}
		}
	}
	// An invalid instance fails with NewCostModel's error.
	bad := randInstance(r, 5, 2)
	bad.Devices[3].Demand = -1
	_, wantErr := NewCostModel(bad)
	if _, _, err := SolveOnce(bad, CCSGAScheduler{}); err == nil || err.Error() != wantErr.Error() {
		t.Fatalf("invalid instance: error %v, want %v", err, wantErr)
	}
}

// TestRecycledGameOrderIndependent solves a battery of CCSGA instances
// once in order and then again in a shuffled order, interleaved with
// warm starts, so every game draws buffers last used by a game of
// another shape: each solve's schedule and diagnostics must not depend
// on what the pool handed it.
func TestRecycledGameOrderIndependent(t *testing.T) {
	r := rand.New(rand.NewSource(2728))
	ins := recycleBattery(r)
	opts := func(k int) CCSGAOptions {
		o := CCSGAOptions{}
		if k%2 == 1 {
			o.Scheme = ESS{}
		}
		if k%4 == 3 {
			o.Seed = int64(k)
		}
		return o
	}
	want := make([]*CCSGAResult, len(ins))
	for k, in := range ins {
		res, err := CCSGA(mustCostModel(t, in), opts(k))
		if err != nil {
			t.Fatal(err)
		}
		want[k] = res
	}
	for _, k := range r.Perm(len(ins)) {
		cm := mustCostModel(t, ins[k])
		if _, err := (CCSGAScheduler{}).ScheduleRepair(cm, NewWarmStart(), nil); err != nil {
			t.Fatal(err)
		}
		got, err := CCSGA(cm, opts(k))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want[k]) {
			t.Fatalf("instance %d solved differently after recycling:\n got %+v\nwant %+v", k, got, want[k])
		}
	}
}

// TestSolveOnceRecycleConcurrent runs SolveOnce from several goroutines
// over instances of different sizes, so pooled models and games move
// between goroutines: every answer must equal its serial solve. Run
// under -race.
func TestSolveOnceRecycleConcurrent(t *testing.T) {
	r := rand.New(rand.NewSource(2729))
	ins := recycleBattery(r)
	type answer struct {
		plan *Schedule
		cost float64
	}
	want := make([]answer, len(ins))
	for k, in := range ins {
		plan, cost, err := SolveOnce(in, CCSGAScheduler{})
		if err != nil {
			t.Fatal(err)
		}
		want[k] = answer{plan, cost}
	}
	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for step := 0; step < 2*len(ins); step++ {
				k := (w*5 + step) % len(ins)
				plan, cost, err := SolveOnce(ins[k], CCSGAScheduler{})
				if err != nil {
					t.Error(err)
					return
				}
				if !reflect.DeepEqual(plan, want[k].plan) || math.Float64bits(cost) != math.Float64bits(want[k].cost) {
					t.Errorf("worker %d step %d: instance %d solved differently than serially", w, step, k)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestScheduleMemberListsCapped pins the flat member array's safety: an
// append to one coalition's members must not write into the next's.
func TestScheduleMemberListsCapped(t *testing.T) {
	s := assignmentSchedule([]int{0, 1, 0, 1, 2}, make([]int, 4))
	first := s.Coalitions[0].Members
	_ = append(first, 99)
	if got := s.Coalitions[1].Members; !reflect.DeepEqual(got, []int{1, 3}) {
		t.Fatalf("append to coalition 0 changed coalition 1 to %v", got)
	}
}
