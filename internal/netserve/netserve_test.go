package netserve

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/testutil"
	"repro/internal/wire"
)

// fakeFront is a front end over the shared layer whose line answerer
// numbers each line it answers as {"echo":N} and whose binary handler
// reports the first byte it reads. A line "wedge" signals wedged and
// blocks its answer until release closes.
type fakeFront struct {
	srv      *Server
	reg      *obs.Registry
	requests atomic.Uint64
	failures atomic.Uint64
	answered atomic.Int64
	binary   chan byte
	wedged   chan struct{}
	release  chan struct{}
	addr     string
}

func startFake(t *testing.T, idle time.Duration) *fakeFront {
	t.Helper()
	testutil.CheckGoroutines(t, "repro/internal/netserve")
	f := &fakeFront{reg: obs.NewRegistry(), binary: make(chan byte, 1),
		wedged: make(chan struct{}, 1), release: make(chan struct{})}
	f.srv = New(Config{
		Name:        "fake",
		Reg:         f.reg,
		IdleTimeout: idle,
		Requests:    &f.requests,
		Failures:    &f.failures,
		Lines: func() func([]byte) []byte {
			return func(line []byte) []byte {
				if string(line) == "wedge" {
					f.wedged <- struct{}{}
					<-f.release
				}
				return []byte(fmt.Sprintf(`{"echo":%d}`+"\n", f.answered.Add(1)))
			}
		},
		Binary: func(conn net.Conn, br *bufio.Reader) {
			b, _ := br.ReadByte()
			f.binary <- b
		},
	})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	f.addr = l.Addr().String()
	served := make(chan struct{})
	go func() {
		defer close(served)
		_ = f.srv.Serve(l)
	}()
	t.Cleanup(func() {
		_ = l.Close()
		<-served
		f.srv.BeginShutdown()
		f.srv.Drain(2 * time.Second)
	})
	return f
}

func (f *fakeFront) dial(t *testing.T) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", f.addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = conn.Close() })
	return conn
}

// metric reads one sample of the fake's registry.
func (f *fakeFront) metric(t *testing.T, name string) string {
	t.Helper()
	var sb strings.Builder
	if err := f.reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(sb.String(), "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			return v
		}
	}
	t.Fatalf("%s missing from metrics:\n%s", name, sb.String())
	return ""
}

// waitMetric polls until name reads want: the server accounts a
// connection's end after the client has seen it.
func (f *fakeFront) waitMetric(t *testing.T, name, want string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for f.metric(t, name) != want {
		if time.Now().After(deadline) {
			t.Fatalf("%s = %s, want %s", name, f.metric(t, name), want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestOversizedLineGetsErrorLineAndCounts(t *testing.T) {
	f := startFake(t, 0)
	conn := f.dial(t)
	br := bufio.NewReader(conn)
	if _, err := conn.Write([]byte("hello\n")); err != nil {
		t.Fatal(err)
	}
	if reply, err := br.ReadString('\n'); err != nil || reply != `{"echo":1}`+"\n" {
		t.Fatalf("reply %q, err %v", reply, err)
	}

	// Stream more than the cap with no newline; the server answers and
	// hangs up mid-write, so the writer runs on its own and ignores errors.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		chunk := bytes.Repeat([]byte("x"), 1<<20)
		for i := 0; i <= MaxRequestBytes>>20; i++ {
			if _, err := conn.Write(chunk); err != nil {
				return
			}
		}
	}()
	reply, err := br.ReadString('\n')
	if err != nil || reply != `{"error":"request too large"}`+"\n" {
		t.Fatalf("oversized line: reply %q, err %v", reply, err)
	}
	if _, err := br.ReadString('\n'); err == nil {
		t.Error("connection still serving after the oversized line")
	}
	wg.Wait()
	if r, fl := f.requests.Load(), f.failures.Load(); r != 1 || fl != 1 {
		t.Errorf("requests, failures = %d, %d; want 1, 1 from the oversized line alone", r, fl)
	}
	f.waitMetric(t, "fake_oversized_requests_total", "1")
	if got := f.metric(t, "fake_conn_read_errors_total"); got != "0" {
		t.Errorf("oversized line also counted as %s read error(s)", got)
	}
}

func TestIdleConnectionIsReapedAndCounted(t *testing.T) {
	f := startFake(t, 50*time.Millisecond)
	conn := f.dial(t)
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if n, err := conn.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("idle connection: read %d byte(s), err %v; want EOF from the reaper", n, err)
	}
	f.waitMetric(t, "fake_conn_idle_closed_total", "1")
	if got := f.failures.Load(); got != 0 {
		t.Errorf("idle close counted as %d failed request(s)", got)
	}
}

func TestBeginShutdownUnblocksParkedRead(t *testing.T) {
	f := startFake(t, 0)
	sidecarOut := new(strings.Builder)
	stop, err := f.srv.ServeSidecar("127.0.0.1:0", sidecarOut)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	healthz := strings.TrimSuffix(strings.TrimSpace(strings.TrimPrefix(sidecarOut.String(), "metrics on ")), "/metrics") + "/healthz"
	status := func() int {
		t.Helper()
		resp, err := http.Get(healthz)
		if err != nil {
			t.Fatal(err)
		}
		_ = resp.Body.Close()
		return resp.StatusCode
	}
	if got := status(); got != http.StatusOK {
		t.Fatalf("/healthz = %d before the drain, want 200", got)
	}

	// A connection parked in its read, with no idle timeout to free it.
	conn := f.dial(t)
	br := bufio.NewReader(conn)
	if _, err := conn.Write([]byte("hello\n")); err != nil {
		t.Fatal(err)
	}
	if _, err := br.ReadString('\n'); err != nil {
		t.Fatal(err)
	}
	f.srv.BeginShutdown()
	start := time.Now()
	if !f.srv.Drain(5 * time.Second) {
		t.Fatal("Drain force-closed a connection that was only parked in a read")
	}
	if waited := time.Since(start); waited > 2*time.Second {
		t.Errorf("Drain took %v to release a parked read", waited)
	}
	if _, err := br.ReadString('\n'); err != io.EOF {
		t.Errorf("drained connection: err %v, want EOF", err)
	}
	if got := f.metric(t, "fake_conn_idle_closed_total"); got != "0" {
		t.Errorf("the drain's deadline counted as %s idle close(s)", got)
	}
	if got := status(); got != http.StatusServiceUnavailable {
		t.Errorf("/healthz = %d while draining, want 503", got)
	}
}

func TestDrainForceClosesWedgedHandler(t *testing.T) {
	f := startFake(t, 0)
	conn := f.dial(t)
	if _, err := conn.Write([]byte("wedge\n")); err != nil {
		t.Fatal(err)
	}
	<-f.wedged
	f.srv.BeginShutdown()
	if f.srv.Drain(50 * time.Millisecond) {
		t.Error("Drain reported clean with a handler still wedged")
	}
	if _, err := bufio.NewReader(conn).ReadString('\n'); err == nil {
		t.Error("wedged connection was not force-closed")
	}
	close(f.release)
}

func TestMagicByteReachesBinaryHandler(t *testing.T) {
	f := startFake(t, 0)
	conn := f.dial(t)
	if _, err := conn.Write([]byte{wire.Magic, wire.Version}); err != nil {
		t.Fatal(err)
	}
	select {
	case b := <-f.binary:
		if b != wire.Magic {
			t.Errorf("binary handler read 0x%02X first, want the magic byte unconsumed", b)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("a 0xCC first byte never reached the binary handler")
	}
	if got := f.answered.Load(); got != 0 {
		t.Errorf("line answerer ran %d time(s) on a binary connection", got)
	}
}

// TestEndedClassifiesReadFailures pins the one classification both
// protocols share: what each failure tells the client and which counter
// it moves.
func TestEndedClassifiesReadFailures(t *testing.T) {
	garbled := fmt.Errorf("%w: got 0x7B", wire.ErrBadMagic)
	for _, tc := range []struct {
		name     string
		err      error
		draining bool
		tell     string
		counter  string // the one connection counter that moves, if any
		failed   bool
	}{
		{"clean EOF", nil, false, "", "", false},
		{"EOF mid-frame", io.EOF, false, "", "", false},
		{"oversized frame", fmt.Errorf("%w: 9 MiB", wire.ErrTooLarge), false, "request too large", "fake_oversized_requests_total", true},
		{"oversized line", bufio.ErrTooLong, false, "request too large", "fake_oversized_requests_total", true},
		{"idle", os.ErrDeadlineExceeded, false, "", "fake_conn_idle_closed_total", false},
		{"drain deadline", os.ErrDeadlineExceeded, true, "", "", false},
		{"read error", garbled, false, garbled.Error(), "fake_conn_read_errors_total", false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			reg := obs.NewRegistry()
			var requests, failures atomic.Uint64
			s := New(Config{Name: "fake", Reg: reg, Requests: &requests, Failures: &failures})
			if tc.draining {
				s.BeginShutdown()
			}
			client, server := net.Pipe()
			defer client.Close()
			defer server.Close()
			if got := s.Ended(server, tc.err); got != tc.tell {
				t.Errorf("Ended told %q, want %q", got, tc.tell)
			}
			var sb strings.Builder
			if err := reg.WritePrometheus(&sb); err != nil {
				t.Fatal(err)
			}
			for _, name := range []string{"fake_oversized_requests_total", "fake_conn_idle_closed_total", "fake_conn_read_errors_total"} {
				want := "0"
				if name == tc.counter {
					want = "1"
				}
				if !strings.Contains(sb.String(), "\n"+name+" "+want+"\n") {
					t.Errorf("%s != %s:\n%s", name, want, sb.String())
				}
			}
			if tc.failed != (failures.Load() == 1) || tc.failed != (requests.Load() == 1) {
				t.Errorf("requests, failures = %d, %d; counted as a failed request: want %v",
					requests.Load(), failures.Load(), tc.failed)
			}
		})
	}
}
