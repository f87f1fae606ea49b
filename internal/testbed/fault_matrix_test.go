package testbed

import (
	"fmt"
	"net"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/testutil"
)

// The fault matrix: every scripted failure scenario must leave the
// coordinator terminating within its deadline budget with the documented
// partial result — never a hang, never a panic, never a leaked goroutine.
//
// Timing vocabulary (kept small so the whole matrix runs in seconds):
// RPCTimeout 300ms, 1 retry, handshake deadline 300ms. No injected delay
// or wait exceeds 2× RPCTimeout.

const (
	mxRPCTimeout = 300 * time.Millisecond
	mxBudget     = 4 * time.Second // hard ceiling on any single scenario
)

func matrixConfig(minQuorum int) Config {
	return Config{
		RPCTimeout:       mxRPCTimeout,
		HandshakeTimeout: mxRPCTimeout,
		MaxRetries:       1,
		RetryBackoff:     10 * time.Millisecond,
		MinQuorum:        minQuorum,
	}
}

// faultedTestbed starts a coordinator plus nDev devices (d1..dN) and one
// charger (c1) whose connections are wrapped per plan. Agents whose
// registration is scripted to fail simply never join. Cleanup closes every
// connection (releasing hung writers) before the leak guard runs.
func faultedTestbed(t *testing.T, plan FaultPlan, cfg Config, nDev int) *Coordinator {
	t.Helper()
	testutil.CheckGoroutines(t, "internal/testbed")

	coord, err := NewCoordinatorConfig("127.0.0.1:0", nDev, 1, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = coord.Close() })

	var (
		mu     sync.Mutex
		conns  []net.Conn
		agents []interface{ Close() error }
		wg     sync.WaitGroup
	)
	t.Cleanup(func() {
		mu.Lock()
		for _, c := range conns {
			_ = c.Close()
		}
		mu.Unlock()
		wg.Wait()
		mu.Lock()
		for _, a := range agents {
			_ = a.Close() // errors expected: faults were injected
		}
		mu.Unlock()
	})

	start := func(id string, run func(conn net.Conn) (interface{ Close() error }, error)) {
		conn, err := net.Dial("tcp", coord.Addr())
		if err != nil {
			t.Fatalf("dial %s: %v", id, err)
		}
		conn = plan.Wrap(conn, id)
		mu.Lock()
		conns = append(conns, conn)
		mu.Unlock()
		wg.Add(1)
		go func() {
			defer wg.Done()
			a, err := run(conn)
			if err != nil {
				return // scripted registration fault
			}
			mu.Lock()
			agents = append(agents, a)
			mu.Unlock()
		}()
	}

	for i := 1; i <= nDev; i++ {
		id := fmt.Sprintf("d%d", i)
		st := DeviceState{
			ID:       id,
			Pos:      geom.Pt(float64(10*i), 10),
			DemandJ:  float64(80 + 20*i),
			MoveRate: 0.05,
		}
		start(id, func(conn net.Conn) (interface{ Close() error }, error) {
			return StartDeviceAgentCfg(coord.Addr(), st, NoiseParams{}, 1, AgentConfig{Conn: conn})
		})
	}
	start("c1", func(conn net.Conn) (interface{ Close() error }, error) {
		return StartChargerAgentCfg(coord.Addr(), ChargerState{
			ID: "c1", Pos: geom.Pt(0, 0), Fee: 5,
			TariffCoeff: 0.12, TariffExponent: 0.85, Efficiency: 0.8,
		}, AgentConfig{Conn: conn})
	})
	return coord
}

func TestFaultMatrix(t *testing.T) {
	// Each scenario injects faults into a 3-device, 1-charger testbed and
	// runs the full collect → schedule (NONCOOP: singleton coalitions) →
	// execute pipeline. Device agent message indices: 1 = register,
	// 2 = first status reply, 3 = charge report. Charger: 1 = register,
	// 2..4 = bills for the (up to) three singleton sessions.
	cases := []struct {
		name      string
		plan      FaultPlan
		minQuorum int
		partial   bool // a registration fault keeps the population short

		wantRegistered int // devices expected to register
		wantExcluded   []string
		wantFailed     []string
		wantSessions   int
		wantCollectErr bool
	}{
		{
			name:           "hang at registration",
			plan:           FaultPlan{"d3": {{At: 1, Action: FaultHang}}},
			minQuorum:      2,
			partial:        true,
			wantRegistered: 2,
			wantSessions:   2,
		},
		{
			name:           "close at registration",
			plan:           FaultPlan{"d2": {{At: 1, Action: FaultClose}}},
			minQuorum:      2,
			partial:        true,
			wantRegistered: 2,
			wantSessions:   2,
		},
		{
			name:           "hang at status",
			plan:           FaultPlan{"d2": {{At: 2, Action: FaultHang}}},
			wantRegistered: 3,
			wantExcluded:   []string{"d2"},
			wantSessions:   2,
		},
		{
			name:           "drop at status recovers via retry",
			plan:           FaultPlan{"d2": {{At: 2, Action: FaultDrop}}},
			wantRegistered: 3,
			wantSessions:   3,
		},
		{
			name:           "corrupt at status recovers via retry",
			plan:           FaultPlan{"d1": {{At: 2, Action: FaultCorrupt}}},
			wantRegistered: 3,
			wantSessions:   3,
		},
		{
			name:           "disconnect at status",
			plan:           FaultPlan{"d3": {{At: 2, Action: FaultClose}}},
			wantRegistered: 3,
			wantExcluded:   []string{"d3"},
			wantSessions:   2,
		},
		{
			name:           "delayed status within deadline",
			plan:           FaultPlan{"d1": {{At: 2, Action: FaultDelay, Delay: mxRPCTimeout / 3}}},
			wantRegistered: 3,
			wantSessions:   3,
		},
		{
			name: "delayed status beyond deadline, stale reply discarded",
			plan: FaultPlan{"d1": {{At: 2, Action: FaultDelay, Delay: mxRPCTimeout * 3 / 2}}},

			wantRegistered: 3,
			wantSessions:   3,
		},
		{
			name:           "hang at charge",
			plan:           FaultPlan{"d2": {{At: 3, Action: FaultHang}}},
			wantRegistered: 3,
			wantFailed:     []string{"d2"},
			wantSessions:   2,
		},
		{
			name:           "disconnect at charge",
			plan:           FaultPlan{"d1": {{At: 3, Action: FaultClose}}},
			wantRegistered: 3,
			wantFailed:     []string{"d1"},
			wantSessions:   2,
		},
		{
			name:           "charger hangs at billing",
			plan:           FaultPlan{"c1": {{At: 2, Action: FaultHang}}},
			wantRegistered: 3,
			wantFailed:     []string{"c1"},
			wantSessions:   0,
		},
		{
			name:           "corrupt bill recovers via retry",
			plan:           FaultPlan{"c1": {{At: 2, Action: FaultCorrupt}}},
			wantRegistered: 3,
			wantSessions:   3,
		},
		{
			name: "delayed bill beyond deadline, stale reply discarded",
			plan: FaultPlan{"c1": {{At: 2, Action: FaultDelay, Delay: mxRPCTimeout * 3 / 2}}},

			wantRegistered: 3,
			wantSessions:   3,
		},
		{
			name: "two devices disconnect",
			plan: FaultPlan{
				"d1": {{At: 2, Action: FaultClose}},
				"d2": {{At: 2, Action: FaultClose}},
			},
			wantRegistered: 3,
			wantExcluded:   []string{"d1", "d2"},
			wantSessions:   1,
		},
		{
			name: "all devices disconnect",
			plan: FaultPlan{
				"d1": {{At: 2, Action: FaultClose}},
				"d2": {{At: 2, Action: FaultClose}},
				"d3": {{At: 2, Action: FaultClose}},
			},
			wantRegistered: 3,
			wantCollectErr: true,
		},
		{
			name: "quorum not met",
			plan: FaultPlan{
				"d1": {{At: 2, Action: FaultClose}},
				"d2": {{At: 2, Action: FaultClose}},
			},
			minQuorum:      3,
			wantRegistered: 3,
			wantCollectErr: true,
		},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			started := time.Now()
			coord := faultedTestbed(t, tc.plan, matrixConfig(tc.minQuorum), 3)

			if tc.partial {
				if err := coord.WaitQuorum(2 * mxRPCTimeout); err != nil {
					t.Fatalf("WaitQuorum: %v", err)
				}
			} else if err := coord.WaitReady(2 * time.Second); err != nil {
				t.Fatalf("WaitReady: %v", err)
			}

			in, excluded, err := coord.CollectInstanceDetail()
			if tc.wantCollectErr {
				if err == nil {
					t.Fatalf("CollectInstanceDetail succeeded, want error (excluded %v)", excluded)
				}
				checkBudget(t, started)
				return
			}
			if err != nil {
				t.Fatalf("CollectInstanceDetail: %v (excluded %v)", err, excluded)
			}
			if got := append([]string(nil), excluded...); !equalStrings(got, tc.wantExcluded) {
				t.Errorf("excluded = %v, want %v", got, tc.wantExcluded)
			}
			if len(in.Devices) != tc.wantRegistered-len(tc.wantExcluded) {
				t.Errorf("instance devices = %d, want %d", len(in.Devices), tc.wantRegistered-len(tc.wantExcluded))
			}

			cm, err := core.NewCostModel(in)
			if err != nil {
				t.Fatal(err)
			}
			plan, err := core.NoncoopScheduler{}.Schedule(cm)
			if err != nil {
				t.Fatal(err)
			}
			rep, err := coord.ExecuteScheduleWith(in, plan, core.NoncoopScheduler{})
			if err != nil {
				t.Fatalf("ExecuteScheduleWith: %v", err)
			}
			if !equalStrings(rep.Failed, tc.wantFailed) {
				t.Errorf("Failed = %v, want %v", rep.Failed, tc.wantFailed)
			}
			if rep.Sessions != tc.wantSessions {
				t.Errorf("Sessions = %d, want %d", rep.Sessions, tc.wantSessions)
			}
			if rep.Rescheduled != 0 {
				t.Errorf("Rescheduled = %d, want 0 (singleton coalitions)", rep.Rescheduled)
			}
			if rep.Sessions > 0 && rep.MeasuredCost <= 0 {
				t.Errorf("MeasuredCost = %v with %d sessions", rep.MeasuredCost, rep.Sessions)
			}
			if rep.MeasuredCost != rep.MovingCost+rep.ChargingCost {
				t.Errorf("MeasuredCost %v != moving %v + charging %v", rep.MeasuredCost, rep.MovingCost, rep.ChargingCost)
			}
			checkBudget(t, started)
		})
	}
}

// TestExecuteRescheduleBrokenCoalition pins the re-planning contract: when
// a member of a multi-device coalition fails its charge command, the
// not-yet-commanded members are pulled out and rescheduled, and the report
// accounts both.
func TestExecuteRescheduleBrokenCoalition(t *testing.T) {
	cases := []struct {
		name            string
		failDev         string
		wantFailed      []string
		wantRescheduled int
		wantSessions    int
	}{
		// Members are commanded in ascending index order (d1, d2, d3).
		{"first member fails", "d1", []string{"d1"}, 2, 2},
		{"middle member fails", "d2", []string{"d2"}, 1, 2},
		{"last member fails", "d3", []string{"d3"}, 0, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			started := time.Now()
			plan := FaultPlan{tc.failDev: {{At: 3, Action: FaultHang}}}
			coord := faultedTestbed(t, plan, matrixConfig(0), 3)
			if err := coord.WaitReady(2 * time.Second); err != nil {
				t.Fatal(err)
			}
			in, err := coord.CollectInstance()
			if err != nil {
				t.Fatal(err)
			}
			// One coalition holding every device, hand-built so the broken
			// coalition is guaranteed to have survivors to re-plan.
			sched := &core.Schedule{Coalitions: []core.Coalition{{Charger: 0, Members: []int{0, 1, 2}}}}
			rep, err := coord.ExecuteScheduleWith(in, sched, core.NoncoopScheduler{})
			if err != nil {
				t.Fatalf("ExecuteScheduleWith: %v", err)
			}
			if !equalStrings(rep.Failed, tc.wantFailed) {
				t.Errorf("Failed = %v, want %v", rep.Failed, tc.wantFailed)
			}
			if rep.Rescheduled != tc.wantRescheduled {
				t.Errorf("Rescheduled = %d, want %d", rep.Rescheduled, tc.wantRescheduled)
			}
			if rep.Sessions != tc.wantSessions {
				t.Errorf("Sessions = %d, want %d", rep.Sessions, tc.wantSessions)
			}
			checkBudget(t, started)
		})
	}
}

// TestExecuteScheduleNilReschedulerContinuesCoalition pins the legacy
// entry point's degradation: without a rescheduler, the surviving members
// of a broken coalition are executed as originally planned.
func TestExecuteScheduleNilReschedulerContinuesCoalition(t *testing.T) {
	started := time.Now()
	plan := FaultPlan{"d1": {{At: 3, Action: FaultHang}}}
	coord := faultedTestbed(t, plan, matrixConfig(0), 3)
	if err := coord.WaitReady(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	in, err := coord.CollectInstance()
	if err != nil {
		t.Fatal(err)
	}
	sched := &core.Schedule{Coalitions: []core.Coalition{{Charger: 0, Members: []int{0, 1, 2}}}}
	rep, err := coord.ExecuteScheduleWith(in, sched, nil)
	if err != nil {
		t.Fatalf("ExecuteScheduleWith: %v", err)
	}
	if !equalStrings(rep.Failed, []string{"d1"}) {
		t.Errorf("Failed = %v, want [d1]", rep.Failed)
	}
	if rep.Rescheduled != 0 {
		t.Errorf("Rescheduled = %d, want 0", rep.Rescheduled)
	}
	// d2 and d3 still charged in the original coalition: one session.
	if rep.Sessions != 1 {
		t.Errorf("Sessions = %d, want 1", rep.Sessions)
	}
	if rep.EnergyStored <= 0 {
		t.Errorf("EnergyStored = %v", rep.EnergyStored)
	}
	checkBudget(t, started)
}

func checkBudget(t *testing.T, started time.Time) {
	t.Helper()
	if elapsed := time.Since(started); elapsed > mxBudget {
		t.Errorf("scenario took %v, budget %v", elapsed, mxBudget)
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	as := append([]string(nil), a...)
	bs := append([]string(nil), b...)
	sort.Strings(as)
	sort.Strings(bs)
	for i := range as {
		if as[i] != bs[i] {
			return false
		}
	}
	return true
}
