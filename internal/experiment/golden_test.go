package experiment

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// updateGolden rewrites testdata/golden/<id>.txt from the current code:
//
//	go test ./internal/experiment -run TestGolden -update
//
// Only do this when a rendering or experiment change is intentional;
// the whole point of the goldens is that accidental changes to seeding,
// cell ordering, or aggregation fail loudly.
var updateGolden = flag.Bool("update", false, "rewrite golden experiment renderings")

// IDs returns every registered experiment ID, sorted.
func IDs() []string {
	exps := Registry()
	ids := make([]string, len(exps))
	for i, e := range exps {
		ids[i] = e.ID
	}
	return ids
}

// renderResult is the canonical golden rendering: table, then chart,
// then notes — the same shape cmd/ccsim prints.
func renderResult(res *Result) string {
	var b strings.Builder
	b.WriteString(res.Table.Text())
	if res.Chart != "" {
		b.WriteByte('\n')
		b.WriteString(res.Chart)
	}
	for _, n := range res.Notes {
		fmt.Fprintf(&b, "» %s\n", n)
	}
	return b.String()
}

// TestGolden pins the byte-exact Quick-mode rendering of every
// registered experiment at the default seed 2021. Any change to seed
// derivation, sweep-cell ordering, aggregation order, or table
// formatting shows up as a diff against the committed golden files.
// fig7's wall-clock cells are redacted (see redactNondeterministic);
// its golden pins the table structure and the "-" placement instead.
func TestGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("golden sweep skipped in -short mode")
	}
	for _, e := range Registry() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			t.Parallel()
			res, err := e.Run(Config{Quick: true, Seed: 2021, SeedSet: true})
			if err != nil {
				t.Fatal(err)
			}
			redactNondeterministic(res)
			got := renderResult(res)
			path := filepath.Join("testdata", "golden", e.ID+".txt")
			if *updateGolden {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden (run with -update to create): %v", err)
			}
			if got != string(want) {
				t.Errorf("rendering diverged from %s (rerun with -update only if intentional)\n--- got ---\n%s\n--- want ---\n%s",
					path, got, want)
			}
		})
	}
}

// TestGoldenFilesMatchRegistry keeps the golden directory and the
// registry in lockstep: no stale files for deleted experiments, no
// registered experiment without a golden.
func TestGoldenFilesMatchRegistry(t *testing.T) {
	if *updateGolden {
		t.Skip("directory check skipped while regenerating")
	}
	entries, err := os.ReadDir(filepath.Join("testdata", "golden"))
	if err != nil {
		t.Fatalf("golden directory missing (run TestGolden with -update): %v", err)
	}
	onDisk := make(map[string]bool, len(entries))
	for _, ent := range entries {
		onDisk[strings.TrimSuffix(ent.Name(), ".txt")] = true
	}
	for _, id := range IDs() {
		if !onDisk[id] {
			t.Errorf("experiment %q has no golden file", id)
		}
		delete(onDisk, id)
	}
	for name := range onDisk {
		t.Errorf("stale golden file %q has no registered experiment", name)
	}
}
