// Command perfbench is the repository's end-to-end benchmark. Each run
// drives one workload against a real `ccsd -serve` built from this
// checkout, over loopback, checks every answer, and prints its metrics
// as one JSON object on the last line of standard output.
//
// Run it from the repository root through run.sh, which builds ccsd and
// this client first:
//
//	bash perfbench/run.sh --workload solve-cold --seed 1 --seconds 12 --trace 0
//
// --trace 0 measures the end-to-end metrics; --trace 1 is the separate
// traced run that prints the per-layer metrics. See README.md for the
// workloads, the metrics and what each one should move.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"slices"
	"sort"
	"strings"
	"time"
)

// workloadNames lists the workloads in BENCHMARK.json order.
var workloadNames = []string{"solve-cold", "solve-hot"}

// tracedPasses lists the passes of a traced run: every workload's, then
// session-churn's and shard-rounds'. Those two have no end-to-end run
// (see README.md), but session-churn's pass is the only one through
// internal/wire, the cost model's delta ops and ScheduleRepair, and
// shard-rounds' the only one through internal/shard and internal/par.
var tracedPasses = []string{"solve-cold", "solve-hot", "session-churn", "shard-rounds"}

// options is the parsed command line.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	holdout  int64 // -1 = no held-out seed
	ccsd     string
	state    string
	commit   string
}

// metric is one named measurement in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics maps metric names to measurements.
type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }

// report is what one workload phase hands back to main.
type report struct {
	attempted, failed int
	metrics           metrics
	// counts are the count-type values that must repeat exactly at a
	// seed; the determinism self-check compares them across runs.
	counts map[string]float64
	// info is recorded next to the result (sample counts, window length,
	// first mismatch) but is not a metric.
	info map[string]any
}

func newReport() *report {
	return &report{metrics: metrics{}, counts: map[string]float64{}, info: map[string]any{}}
}

// merge folds o into r.
func (r *report) merge(o *report) {
	r.attempted += o.attempted
	r.failed += o.failed
	for k, v := range o.metrics {
		r.metrics[k] = v
	}
	for k, v := range o.counts {
		r.counts[k] = v
	}
	for k, v := range o.info {
		r.info[k] = v
	}
}

// tracedPass is one pass of the traced run with its inputs prepared.
type tracedPass interface {
	// layers is the traced pass: every op gets a client span and an
	// in-process replay of its layer calls as child spans. It runs for
	// seconds, and at least for the pass's fixed traced op count.
	layers(seconds float64, tr *tracer) (*report, error)
}

// workload is one benchmark workload with its seeded inputs prepared.
type workload interface {
	tracedPass
	// endToEnd sets the system up (several times, for setup_s) and runs
	// the timed window with tracing off.
	endToEnd(seconds float64) (*report, error)
	// counts returns the deterministic in-process counts of the
	// prepared inputs (cost_ratio, passes, switches, ...).
	counts() (map[string]float64, error)
}

// prepare generates the inputs and expected answers of one workload.
func prepare(name string, seed int64, opts options) (workload, error) {
	switch name {
	case "solve-cold":
		return newSolveCold(seed, opts)
	case "solve-hot":
		return newSolveHot(seed, opts)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames, ", "))
}

func parseFlags(args []string) (options, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload to run: "+strings.Join(workloadNames, ", "))
	fs.Int64Var(&o.seed, "seed", 1, "seed the workload's inputs are generated from")
	fs.Float64Var(&o.seconds, "seconds", 10, "length of the timed window, seconds")
	fs.IntVar(&trace, "trace", 0, "1 = traced run printing the per-layer metrics")
	fs.Int64Var(&o.holdout, "holdout-seed", -1, "also record the counts and cost_ratio at this held-out seed (-1 = off)")
	fs.StringVar(&o.ccsd, "ccsd", "", "path of the ccsd binary built from this checkout")
	fs.StringVar(&o.state, "state", "", "directory for span dumps and determinism records")
	fs.StringVar(&o.commit, "commit", "unknown", "commit the binaries were built from")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	switch {
	case o.ccsd == "" || o.state == "":
		return o, errors.New("--ccsd and --state are required (run through run.sh)")
	case !slices.Contains(workloadNames, o.workload):
		return o, fmt.Errorf("--workload %q: want one of %s", o.workload, strings.Join(workloadNames, ", "))
	case o.seconds <= 0:
		return o, fmt.Errorf("--seconds %v must be > 0", o.seconds)
	case trace != 0 && trace != 1:
		return o, fmt.Errorf("--trace %d must be 0 or 1", trace)
	}
	o.trace = trace == 1
	return o, nil
}

func main() {
	opts, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	if n := runtime.NumCPU(); runtime.GOMAXPROCS(0) > n {
		runtime.GOMAXPROCS(n)
	}
	res, err := run(opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// result is the contract's last output line.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

func run(opts options) (*result, error) {
	if err := os.MkdirAll(opts.state, 0o755); err != nil {
		return nil, err
	}
	start := time.Now()
	var rep *report
	var err error
	if opts.trace {
		rep, err = tracedRun(opts)
	} else {
		rep, err = endToEnd(opts)
	}
	if err != nil {
		return nil, err
	}
	mismatch, err := checkDeterminism(opts, rep.counts)
	if err != nil {
		return nil, err
	}
	record := map[string]any{
		"env":         environment(opts),
		"workload":    opts.workload,
		"seed":        opts.seed,
		"trace":       opts.trace,
		"run_s":       time.Since(start).Seconds(),
		"counts":      rep.counts,
		"determinism": determinismNote(mismatch),
		"info":        rep.info,
	}
	if opts.holdout >= 0 {
		h, err := prepare(opts.workload, opts.holdout, opts)
		if err != nil {
			return nil, fmt.Errorf("holdout seed %d: %w", opts.holdout, err)
		}
		hc, err := h.counts()
		if err != nil {
			return nil, fmt.Errorf("holdout seed %d: %w", opts.holdout, err)
		}
		record["holdout"] = map[string]any{"seed": opts.holdout, "counts": hc}
	}
	if line, err := json.Marshal(record); err == nil {
		fmt.Println(string(line))
	}
	return &result{
		Correct:   rep.failed == 0 && len(mismatch) == 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   rep.metrics,
	}, nil
}

// endToEnd prepares the named workload, runs its timed window and adds
// the deterministic counts of its prepared inputs.
func endToEnd(opts options) (*report, error) {
	w, err := prepare(opts.workload, opts.seed, opts)
	if err != nil {
		return nil, err
	}
	rep, err := w.endToEnd(opts.seconds)
	if err != nil {
		return nil, err
	}
	counts, err := w.counts()
	if err != nil {
		return nil, err
	}
	for k, v := range counts {
		rep.counts[k] = v
	}
	return rep, nil
}

// tracedRun makes every pass of tracedPasses at the run's seed, each
// over an equal share of the window, so every traced run prints every
// per-layer metric, each measured the same way whichever workload is
// named: a pass prepares its own inputs and drops them when it ends, so
// no pass runs beside another's live inputs. Every pass's counts enter
// the determinism record; the spans are written to the state directory
// at the end.
func tracedRun(opts options) (*report, error) {
	tr := newTracer()
	rep := newReport()
	share := opts.seconds / float64(len(tracedPasses))
	for _, name := range tracedPasses {
		var pass tracedPass
		var err error
		switch name {
		case "session-churn":
			pass, err = newSessionChurn(opts.seed, opts)
		case "shard-rounds":
			pass, err = newShardRounds(opts.seed)
		default:
			pass, err = prepare(name, opts.seed, opts)
		}
		if err != nil {
			return nil, err
		}
		prep, err := pass.layers(share, tr)
		if err != nil {
			return nil, fmt.Errorf("%s traced pass: %w", name, err)
		}
		rep.merge(prep)
	}
	if err := tr.write(fmt.Sprintf("%s/spans-%s-%d.jsonl", opts.state, opts.workload, opts.seed)); err != nil {
		return nil, err
	}
	return rep, nil
}

// determinismNote renders the self-check outcome for the record line.
func determinismNote(mismatch []string) any {
	if len(mismatch) == 0 {
		return "ok"
	}
	sort.Strings(mismatch)
	return map[string]any{"differs": mismatch}
}
