package testutil

import (
	"context"
	"go/version"
	"os"
	"os/exec"
	"runtime"
	"testing"
	"time"
)

// childEnv marks a process started by RerunUnder.
const childEnv = "REPRO_TEST_RERUN"

// InRerun reports whether this test binary was started by RerunUnder:
// the calling test is then the child and does the work under test.
func InRerun() bool { return os.Getenv(childEnv) == "1" }

// RerunUnder runs the calling test again in a fresh copy of the test
// binary with GODEBUG=godebug, for settings the runtime reads only at
// start-up (fips140, say). It returns the child's combined output and
// exit error; the child is killed after a minute.
func RerunUnder(t *testing.T, godebug string) ([]byte, error) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	cmd := exec.CommandContext(ctx, os.Args[0], "-test.run=^"+t.Name()+"$", "-test.count=1", "-test.v")
	cmd.Env = append(os.Environ(), "GODEBUG="+godebug, childEnv+"=1")
	return cmd.CombinedOutput()
}

// SkipWithoutFIPS140 skips t on a Go release older than go1.24, which
// has no GODEBUG=fips140 setting: there GCM accepts a fixed nonce
// whatever the setting, so there is no FIPS 140-only refusal to test.
func SkipWithoutFIPS140(t *testing.T) {
	t.Helper()
	if v := runtime.Version(); version.IsValid(v) && version.Compare(v, "go1.24") < 0 {
		t.Skipf("%s has no fips140 GODEBUG setting (go1.24 added it)", v)
	}
}
