package main

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"net"
	"os"
	"os/exec"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/testutil"
)

func TestRunRejectsBadFlags(t *testing.T) {
	for name, args := range map[string][]string{
		"no backends":      {},
		"bad replicas":     {"-backends", "127.0.0.1:1", "-replicas", "0"},
		"bad conns":        {"-backends", "127.0.0.1:1", "-backend-conns", "-1"},
		"bad inflight":     {"-backends", "127.0.0.1:1", "-backend-inflight", "0"},
		"bad queue":        {"-backends", "127.0.0.1:1", "-backend-queue", "0"},
		"bad cache":        {"-backends", "127.0.0.1:1", "-cache-size", "0"},
		"bad coalesce":     {"-backends", "127.0.0.1:1", "-coalesce-wait", "-1s"},
		"bad health fails": {"-backends", "127.0.0.1:1", "-health-fails", "0"},
		"bad drain":        {"-backends", "127.0.0.1:1", "-drain-timeout", "0"},
		"duplicate":        {"-backends", "127.0.0.1:1,127.0.0.1:1"},
		"unknown flag":     {"-backends", "127.0.0.1:1", "-no-such-flag"},
	} {
		if err := run(args, io.Discard); err == nil {
			t.Errorf("%s: run accepted %v", name, args)
		}
	}
}

// TestRunFIPSOnly: where the runtime refuses the replay tier's keyed
// digest (GCM with a fixed nonce, under GODEBUG=fips140=only), the
// router exits non-zero naming the refusal instead of running without
// it. The mode is read at start-up, so the test reruns itself. The
// listen address has no port, so a router that got past the cache would
// exit at once on a listen error rather than run.
func TestRunFIPSOnly(t *testing.T) {
	if testutil.InRerun() {
		os.Args = []string{"ccsrouter", "-listen", "127.0.0.1", "-backends", "127.0.0.1:1"}
		main()
		return
	}
	testutil.SkipWithoutFIPS140(t)
	out, err := testutil.RerunUnder(t, "fips140=only")
	if exit := (*exec.ExitError)(nil); !errors.As(err, &exit) || exit.ExitCode() != 1 {
		t.Fatalf("ccsrouter under fips140=only ended with %v, want exit status 1\n%s", err, out)
	}
	if !bytes.Contains(out, []byte("ccsrouter: instcache: raw-tier key: crypto/cipher: ")) || !bytes.Contains(out, []byte("FIPS 140-only mode")) {
		t.Fatalf("ccsrouter under fips140=only did not name the GCM refusal:\n%s", out)
	}
}

func TestSplitAddrs(t *testing.T) {
	got := splitAddrs(" a:1, ,b:2,,c:3 ")
	want := []string{"a:1", "b:2", "c:3"}
	if len(got) != len(want) {
		t.Fatalf("splitAddrs = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("splitAddrs = %v, want %v", got, want)
		}
	}
}

// TestRunServesAndDrains boots the router CLI against a stub backend,
// round-trips a stats request, then shuts it down via the signal path's
// public twin (closing the listener is what the handler does).
func TestRunServesAndDrains(t *testing.T) {
	// Stub backend: answers every line, which also satisfies probes.
	bl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = bl.Close() }()
	go func() {
		for {
			conn, err := bl.Accept()
			if err != nil {
				return
			}
			go func(conn net.Conn) {
				defer func() { _ = conn.Close() }()
				sc := bufio.NewScanner(conn)
				for sc.Scan() {
					if _, err := conn.Write([]byte(`{"ok":true}` + "\n")); err != nil {
						return
					}
				}
			}(conn)
		}
	}()

	// Pre-bind the router's listener so the test knows the address; run()
	// listens on -listen itself, so grab a free port and release it.
	probe, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := probe.Addr().String()
	_ = probe.Close()

	var out bytes.Buffer
	done := make(chan error, 1)
	go func() {
		done <- run([]string{
			"-listen", addr,
			"-backends", bl.Addr().String(),
			"-drain-timeout", "2s",
		}, &out)
	}()

	var conn net.Conn
	deadline := time.Now().Add(5 * time.Second)
	for {
		conn, err = net.Dial("tcp", addr)
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("router never came up on %s: %v", addr, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if _, err := conn.Write([]byte(`{"stats":true}` + "\n")); err != nil {
		t.Fatal(err)
	}
	line, err := bufio.NewReader(conn).ReadBytes('\n')
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(line, []byte(`{"router":`)) {
		t.Fatalf("stats response = %s", line)
	}
	_ = conn.Close()

	// Drive the real shutdown path: run() owns this process's only
	// SIGTERM handler, so signalling ourselves triggers drain + summary.
	if err := syscall.Kill(syscall.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run: %v (output %q)", err, out.String())
		}
	case <-time.After(10 * time.Second):
		t.Fatal("run did not exit after SIGTERM")
	}
	if !strings.Contains(out.String(), "routing solves on") {
		t.Fatalf("banner missing from output: %q", out.String())
	}
	if !strings.Contains(out.String(), "routed ") {
		t.Fatalf("shutdown summary missing from output: %q", out.String())
	}
}
