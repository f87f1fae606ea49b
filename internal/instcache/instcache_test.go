package instcache

import (
	"errors"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/pricing"
	"repro/internal/testutil"
)

func testInstance(nudge float64) *core.Instance {
	return &core.Instance{
		Field: geom.Square(1000),
		Devices: []core.Device{
			{ID: "d0", Pos: geom.Pt(100, 100), Demand: 120 + nudge, MoveRate: 0.01},
			{ID: "d1", Pos: geom.Pt(200, 150), Demand: 210, MoveRate: 0.02},
			{ID: "d2", Pos: geom.Pt(800, 750), Demand: 90, MoveRate: 0.015},
		},
		Chargers: []core.Charger{
			{ID: "c0", Pos: geom.Pt(300, 300), Fee: 8,
				Tariff: pricing.Tariff{Kind: pricing.PowerLaw, Coeff: 0.3, Exponent: 0.9}, Efficiency: 0.8},
			{ID: "c1", Pos: geom.Pt(700, 700), Fee: 8,
				Tariff: pricing.Tariff{Kind: pricing.PowerLaw, Coeff: 0.3, Exponent: 0.9}, Efficiency: 0.8},
		},
	}
}

func TestFingerprintStableAndSensitive(t *testing.T) {
	a, err := Fingerprint(testInstance(0))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Fingerprint(testInstance(0))
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("identical instances fingerprint differently")
	}
	// Every solve-relevant field must perturb the digest.
	mutations := map[string]func(*core.Instance){
		"field":         func(in *core.Instance) { in.Field.MaxX = 999 },
		"device ID":     func(in *core.Instance) { in.Devices[1].ID = "dX" },
		"device pos":    func(in *core.Instance) { in.Devices[1].Pos.X += 1e-9 },
		"device demand": func(in *core.Instance) { in.Devices[0].Demand = math.Nextafter(in.Devices[0].Demand, 1e9) },
		"device rate":   func(in *core.Instance) { in.Devices[2].MoveRate *= 2 },
		"device order":  func(in *core.Instance) { in.Devices[0], in.Devices[1] = in.Devices[1], in.Devices[0] },
		"charger fee":   func(in *core.Instance) { in.Chargers[0].Fee++ },
		"charger eff":   func(in *core.Instance) { in.Chargers[1].Efficiency = 0.9 },
		"charger cap":   func(in *core.Instance) { in.Chargers[0].Capacity = 500 },
		"tariff kind":   func(in *core.Instance) { in.Chargers[0].Tariff = pricing.Tariff{Kind: pricing.Linear, Rate: 0.3} },
		"tariff params": func(in *core.Instance) {
			in.Chargers[0].Tariff = pricing.Tariff{Kind: pricing.PowerLaw, Coeff: 0.3, Exponent: 0.91}
		},
		"tiered tariff": func(in *core.Instance) {
			in.Chargers[0].Tariff = testutil.MustTiered([]pricing.Tier{{UpTo: 100, Rate: 0.3}, {UpTo: math.Inf(1), Rate: 0.2}})
		},
		"drop a device":  func(in *core.Instance) { in.Devices = in.Devices[:2] },
		"drop a charger": func(in *core.Instance) { in.Chargers = in.Chargers[:1] },
	}
	for name, mutate := range mutations {
		in := testInstance(0)
		mutate(in)
		got, err := Fingerprint(in)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got == a {
			t.Errorf("mutating %s did not change the fingerprint", name)
		}
	}
	// Two tiered tariffs with different tables must differ even though
	// both hash through the same tagged branch.
	t1 := testInstance(0)
	t1.Chargers[0].Tariff = testutil.MustTiered([]pricing.Tier{{UpTo: 100, Rate: 0.3}, {UpTo: math.Inf(1), Rate: 0.2}})
	t2 := testInstance(0)
	t2.Chargers[0].Tariff = testutil.MustTiered([]pricing.Tier{{UpTo: 150, Rate: 0.3}, {UpTo: math.Inf(1), Rate: 0.2}})
	f1, err := Fingerprint(t1)
	if err != nil {
		t.Fatal(err)
	}
	f2, err := Fingerprint(t2)
	if err != nil {
		t.Fatal(err)
	}
	if f1 == f2 {
		t.Error("tiered tariffs with different tables fingerprint identically")
	}
}

// TestFingerprintRejectsUnknownTariff: a charger whose tariff has the
// zero kind, no tariff at all, cannot be fingerprinted.
func TestFingerprintRejectsUnknownTariff(t *testing.T) {
	in := testInstance(0)
	in.Chargers[0].Tariff = pricing.Tariff{}
	if _, err := Fingerprint(in); err == nil {
		t.Fatal("charger without a tariff accepted")
	}
}

func solveFor(in *core.Instance) func() (*core.Schedule, float64, error) {
	return func() (*core.Schedule, float64, error) {
		cm, err := core.NewCostModel(in)
		if err != nil {
			return nil, 0, err
		}
		res, err := core.CCSGA(cm, core.CCSGAOptions{})
		if err != nil {
			return nil, 0, err
		}
		return res.Schedule, cm.TotalCost(res.Schedule), nil
	}
}

func TestCacheHitMissAndIsolation(t *testing.T) {
	c, err := New(8)
	if err != nil {
		t.Fatal(err)
	}
	in := testInstance(0)
	key, err := KeyFor(in, "CCSGA", "")
	if err != nil {
		t.Fatal(err)
	}
	s1, cost1, cached, err := c.Do(key, solveFor(in))
	if err != nil {
		t.Fatal(err)
	}
	if cached {
		t.Error("first Do reported cached")
	}
	s2, cost2, cached, err := c.Do(key, func() (*core.Schedule, float64, error) {
		t.Error("cache hit ran the solver")
		return nil, 0, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !cached || cost2 != cost1 {
		t.Errorf("second Do cached=%v cost=%v, want true, %v", cached, cost2, cost1)
	}
	if len(s2.Coalitions) != len(s1.Coalitions) {
		t.Fatal("cached schedule differs")
	}
	// Mutating a returned schedule must not corrupt the cache.
	s2.Coalitions[0].Members[0] = -99
	s3, _, _, err := c.Do(key, solveFor(in))
	if err != nil {
		t.Fatal(err)
	}
	if s3.Coalitions[0].Members[0] == -99 {
		t.Error("caller mutation leaked into the cache")
	}
	st := c.Stats()
	if st.Misses != 1 || st.Hits != 2 || st.Size != 1 {
		t.Errorf("stats %+v, want 1 miss, 2 hits, size 1", st)
	}

	// A different scheduler name under the same fingerprint is a distinct
	// entry.
	key2 := key
	key2.Scheduler = "CCSA"
	_, _, cached, err = c.Do(key2, solveFor(in))
	if err != nil {
		t.Fatal(err)
	}
	if cached {
		t.Error("different scheduler hit the CCSGA entry")
	}
}

func TestCacheEvictsLRU(t *testing.T) {
	c, err := New(2)
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]Key, 3)
	for i := range keys {
		in := testInstance(float64(i))
		k, err := KeyFor(in, "CCSGA", "")
		if err != nil {
			t.Fatal(err)
		}
		keys[i] = k
		if _, _, _, err := c.Do(k, solveFor(in)); err != nil {
			t.Fatal(err)
		}
	}
	st := c.Stats()
	if st.Size != 2 || st.Evictions != 1 {
		t.Fatalf("stats %+v, want size 2 with 1 eviction", st)
	}
	// keys[0] was least recently used and must be gone; keys[2] must hit.
	ran := false
	if _, _, cached, _ := c.Do(keys[2], solveFor(testInstance(2))); !cached {
		t.Error("most recent key evicted")
	}
	if _, _, cached, _ := c.Do(keys[0], func() (*core.Schedule, float64, error) {
		ran = true
		return solveFor(testInstance(0))()
	}); cached || !ran {
		t.Error("least recent key survived past capacity")
	}
}

func TestCacheDoesNotCacheErrors(t *testing.T) {
	c, err := New(4)
	if err != nil {
		t.Fatal(err)
	}
	key := Key{Scheduler: "CCSGA"}
	boom := errors.New("boom")
	if _, _, _, err := c.Do(key, func() (*core.Schedule, float64, error) {
		return nil, 0, boom
	}); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if c.ll.Len() != 0 {
		t.Fatal("error was cached")
	}
	// The next request retries and can succeed.
	in := testInstance(0)
	_, _, cached, err := c.Do(key, solveFor(in))
	if err != nil {
		t.Fatal(err)
	}
	if cached {
		t.Error("retry after error reported cached")
	}
}

func TestCacheSingleFlightCollapses(t *testing.T) {
	c, err := New(4)
	if err != nil {
		t.Fatal(err)
	}
	key := Key{Scheduler: "CCSGA"}
	var solves atomic.Int64
	release := make(chan struct{})
	in := testInstance(0)

	const callers = 16
	var wg sync.WaitGroup
	costs := make([]float64, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s, cost, _, err := c.Do(key, func() (*core.Schedule, float64, error) {
				solves.Add(1)
				<-release // hold every concurrent caller in the same flight
				return solveFor(in)()
			})
			if err != nil || s == nil {
				t.Errorf("caller %d: %v", i, err)
				return
			}
			costs[i] = cost
		}(i)
	}
	// Release the leader only once every other caller has joined its
	// flight, so none of them can arrive late and see a plain cache hit.
	for {
		st := c.Stats()
		if st.Misses == 1 && st.Collapsed == callers-1 {
			break
		}
		runtime.Gosched()
	}
	close(release)
	wg.Wait()

	if n := solves.Load(); n != 1 {
		t.Errorf("%d solves ran, want 1 (single-flight)", n)
	}
	st := c.Stats()
	if st.Collapsed != callers-1 {
		t.Errorf("collapsed %d, want %d", st.Collapsed, callers-1)
	}
	for i := 1; i < callers; i++ {
		if costs[i] != costs[0] {
			t.Fatalf("caller %d cost %v != caller 0 cost %v", i, costs[i], costs[0])
		}
	}
}

func TestNewRejectsBadCapacity(t *testing.T) {
	if _, err := New(0); err == nil {
		t.Error("capacity 0 accepted")
	}
	if _, err := New(-3); err == nil {
		t.Error("negative capacity accepted")
	}
}
