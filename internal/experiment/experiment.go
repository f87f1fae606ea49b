package experiment

import (
	"fmt"
	"runtime"
	"sort"

	"repro/internal/obs"
)

// Config controls how experiments run.
type Config struct {
	// Seed is the base seed of every derived random stream. A zero Seed
	// with SeedSet false maps to the default 2021; set SeedSet to run
	// the literal seed 0.
	Seed int64
	// SeedSet marks Seed as explicitly chosen, distinguishing an
	// intentional seed 0 from the zero value.
	SeedSet bool
	// Reps overrides each experiment's replication count when positive.
	Reps int
	// Quick shrinks sweeps and replications for smoke tests and benches.
	Quick bool
	// Workers bounds how many independent experiment cells — seeded
	// (label, rep) instances — run concurrently. Zero or negative means
	// runtime.GOMAXPROCS(0). Results are byte-identical for every
	// worker count: cells write into pre-indexed slots and aggregation
	// order is fixed.
	Workers int
	// WarmStart switches the online experiment (ext3) to its warm-start
	// study: a recurring-arrival workload solved cold and warm by CCSGA,
	// reporting the coalition-formation pass/switch reduction. Off, every
	// experiment's output is byte-identical to earlier releases.
	WarmStart bool
	// ShardCell, ShardOverlap and ShardWorkers parametrize the scale
	// study (ext5-scale): a positive ShardCell overrides its per-size
	// default cell side (meters), ShardOverlap likewise the boundary
	// band, and a positive ShardWorkers pins the per-round solve
	// parallelism instead of sweeping it. Other experiments ignore all
	// three. Set from cmd/ccsim's -shard-* flags.
	ShardCell    float64
	ShardOverlap float64
	ShardWorkers int
	// MobileFrac overrides the heterogeneous-fleet study's (ext4-mobile)
	// default mobile charger fraction when positive. Other experiments
	// ignore it. Set from cmd/ccsim's -mobile-frac flag.
	MobileFrac float64
	// CoverageK and CoverageRadius configure the k-coverage validity
	// layer: ext4-mobile reports the k-covered device fraction at the
	// radius, and the online experiment (ext3) counts rounds whose
	// schedule leaves a device outside k sessions' reach. Zero keeps the
	// defaults (and ext3's output byte-identical). Set from cmd/ccsim's
	// -coverage-k and -coverage-radius flags.
	CoverageK      int
	CoverageRadius float64
	// Obs, when non-nil, collects solver diagnostics from the
	// experiments that run the online loop (ccsim -metrics). The
	// registry is safe for the concurrent cells; table output is
	// byte-identical with or without it.
	Obs *obs.Registry
}

func (c Config) withDefaults() Config {
	if c.Seed == 0 && !c.SeedSet {
		c.Seed = 2021
	}
	return c
}

// workerCount resolves the Workers knob to a concrete pool size.
func (c Config) workerCount() int {
	if c.Workers > 0 {
		return c.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// reps picks the replication count: explicit override, else quick or full
// default.
func (c Config) reps(full, quick int) int {
	if c.Reps > 0 {
		return c.Reps
	}
	if c.Quick {
		return quick
	}
	return full
}

// Result is a completed experiment.
type Result struct {
	// ID is the experiment identifier (table1, fig3, …).
	ID string
	// Table is the regenerated table/figure data.
	Table *Table
	// Notes carry the headline comparisons against the paper's numbers.
	Notes []string
	// Chart, when nonempty, is a terminal rendering of the figure
	// (bar chart or multi-series sweep sketch).
	Chart string
}

// Experiment regenerates one table or figure of the paper.
type Experiment struct {
	// ID is the stable identifier used by cmd/ccsim and the benches.
	ID string
	// Title describes what the paper reports there.
	Title string
	// Run executes the workload.
	Run func(Config) (*Result, error)
}

// Registry returns every experiment, sorted by ID.
func Registry() []Experiment {
	exps := []Experiment{
		table1(),
		fig3(),
		fig4(),
		fig5(),
		fig6(),
		fig7(),
		fig8(),
		fig9(),
		table2(),
		fig10(),
		ext1(),
		ext2(),
		ext3(),
		ext4(),
		ext4Mobile(),
		ext5(),
	}
	sort.Slice(exps, func(i, j int) bool { return exps[i].ID < exps[j].ID })
	return exps
}

// Get returns the experiment with the given ID.
func Get(id string) (Experiment, error) {
	for _, e := range Registry() {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("experiment: unknown id %q", id)
}
