// Package netserve is the connection layer of the solve service's two
// front ends, ccsd -serve and ccsrouter. It owns everything about a
// client connection except what a request means: the accept loop and
// connection tracking, the first-byte protocol sniff, the newline-JSON
// line loop with its per-line idle deadline and request-size cap, the
// accounting of how a connection's reads ended, the drain on shutdown,
// the metrics sidecar and the SIGINT/SIGTERM run loop.
//
// Failures are never silent. An oversized request gets a final error
// line (or frame) and counts as one failed request; an idle reap and any
// other read error are counted and logged; a drain lets the request in
// flight finish and its reply land before the connection closes. The
// caller hands in the request counters the layer reports through, so
// both front ends keep one contract.
package netserve

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/obs"
	"repro/internal/wire"
)

// MaxRequestBytes bounds one request line or frame payload; beyond it
// the client gets a "request too large" error and the connection closes.
const MaxRequestBytes = 8 * 1024 * 1024

const tooLarge = "request too large"

var tooLargeLine = []byte(`{"error":"` + tooLarge + `"}` + "\n")

// Config wires a Server.
type Config struct {
	// Name prefixes the connection metrics: <Name>_inflight_connections,
	// <Name>_conn_idle_closed_total, <Name>_oversized_requests_total and
	// <Name>_conn_read_errors_total.
	Name string
	// Reg, when non-nil, registers those metrics.
	Reg *obs.Registry
	// Log receives the request_too_large, conn_idle_closed and
	// conn_read_error events; nil discards them.
	Log *obs.EventLogger
	// IdleTimeout closes a connection that sends no request for this
	// long; 0 disables the deadline.
	IdleTimeout time.Duration
	// Requests and Failures are the caller's request counters; an
	// oversized request counts once in each.
	Requests, Failures *atomic.Uint64
	// Lines opens a newline-JSON connection and returns the function that
	// answers each of its non-empty request lines. A reply carries its
	// newline and is written before the next line is read.
	Lines func() func(line []byte) []byte
	// Binary serves a connection whose first byte is wire.Magic (which no
	// JSON request can start with) until the connection ends; br holds
	// the unread bytes, the magic byte included.
	Binary func(conn net.Conn, br *bufio.Reader)
}

// Server runs the connection lifecycle for one front end; safe for
// concurrent connections.
type Server struct {
	cfg        Config
	inflight   *obs.Gauge
	idleClosed *obs.Counter
	oversized  *obs.Counter
	readErrors *obs.Counter

	// closing flips once when the drain begins; wg counts live
	// connection goroutines, and conns holds their sockets so a drain can
	// unblock pending reads and force-close stragglers.
	closing atomic.Bool
	wg      sync.WaitGroup
	connMu  sync.Mutex
	conns   map[net.Conn]struct{}
}

// New builds a Server and registers its metrics in cfg.Reg.
func New(cfg Config) *Server {
	return &Server{
		cfg:        cfg,
		inflight:   cfg.Reg.Gauge(cfg.Name + "_inflight_connections"),
		idleClosed: cfg.Reg.Counter(cfg.Name + "_conn_idle_closed_total"),
		oversized:  cfg.Reg.Counter(cfg.Name + "_oversized_requests_total"),
		readErrors: cfg.Reg.Counter(cfg.Name + "_conn_read_errors_total"),
		conns:      make(map[net.Conn]struct{}),
	}
}

// Serve accepts connections until the listener closes. Each connection
// runs in a goroutine the drain waits for.
func (s *Server) Serve(l net.Listener) error {
	for {
		conn, err := l.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.serveConn(conn)
		}()
	}
}

// serveConn negotiates the protocol for one connection and dispatches:
// a one-byte peek picks the codec without consuming anything.
func (s *Server) serveConn(conn net.Conn) {
	s.connMu.Lock()
	s.conns[conn] = struct{}{}
	s.connMu.Unlock()
	defer func() {
		_ = conn.Close()
		s.connMu.Lock()
		delete(s.conns, conn)
		s.connMu.Unlock()
	}()
	s.inflight.Add(1)
	defer s.inflight.Add(-1)
	br := bufio.NewReaderSize(conn, 64*1024)
	if !s.Next(conn) {
		return
	}
	first, err := br.Peek(1)
	if err != nil {
		// The client hung up (or idled out) before its first byte.
		s.Ended(conn, err)
		return
	}
	if first[0] == wire.Magic {
		s.cfg.Binary(conn, br)
		return
	}
	s.serveLines(conn, br)
}

// scanBufPool recycles the line loop's initial scan buffers across
// connections (pointer-to-slice so Put avoids an allocation).
var scanBufPool = sync.Pool{New: func() any { b := make([]byte, 64*1024); return &b }}

// serveLines speaks the newline-JSON protocol on one connection until
// the client hangs up, a read fails, the idle timeout fires, or the
// server drains.
func (s *Server) serveLines(conn net.Conn, br *bufio.Reader) {
	sc := bufio.NewScanner(br)
	// Instances can be large; the initial scan buffer is pooled across
	// connections (a grown buffer is the scanner's own and is not pooled).
	sbuf := scanBufPool.Get().(*[]byte)
	defer scanBufPool.Put(sbuf)
	sc.Buffer(*sbuf, MaxRequestBytes)
	answer := s.cfg.Lines()
	for s.Next(conn) {
		if !sc.Scan() {
			// The request existed but was too big to frame: tell the client
			// before hanging up. Other read failures end the line protocol
			// without a reply.
			if s.Ended(conn, sc.Err()) == tooLarge {
				_, _ = conn.Write(tooLargeLine)
			}
			return
		}
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		if _, err := conn.Write(answer(line)); err != nil {
			return
		}
	}
}

// Next reports whether a connection may read another request: false once
// the server drains (the request in flight, if any, has been answered);
// otherwise it arms the idle deadline for the read.
func (s *Server) Next(conn net.Conn) bool {
	if s.closing.Load() {
		return false
	}
	if s.cfg.IdleTimeout > 0 {
		_ = conn.SetReadDeadline(time.Now().Add(s.cfg.IdleTimeout))
	}
	return true
}

// Ended accounts the error that ended a connection's reads and returns
// what the client should be told before the hangup: "request too large"
// for an oversized request (wire.ErrTooLarge or bufio.ErrTooLong), which
// counts as one failed request; the error's text for any other read
// error; and "" for a clean EOF or an idle close. A deadline that fires
// while the server drains is how the drain unblocks a pending read, not
// an idle client, so it is not counted.
func (s *Server) Ended(conn net.Conn, err error) string {
	switch {
	case err == nil || errors.Is(err, io.EOF):
		return ""
	case errors.Is(err, wire.ErrTooLarge) || errors.Is(err, bufio.ErrTooLong):
		s.cfg.Requests.Add(1)
		s.cfg.Failures.Add(1)
		s.oversized.Inc()
		s.cfg.Log.Event("request_too_large", "remote", remoteAddr(conn), "limit_bytes", MaxRequestBytes)
		return tooLarge
	case errors.Is(err, os.ErrDeadlineExceeded):
		if !s.closing.Load() {
			s.idleClosed.Inc()
			s.cfg.Log.Event("conn_idle_closed", "remote", remoteAddr(conn), "idle_timeout", s.cfg.IdleTimeout)
		}
		return ""
	default:
		s.readErrors.Inc()
		s.cfg.Log.Event("conn_read_error", "remote", remoteAddr(conn), "err", err)
		return err.Error()
	}
}

// remoteAddr renders the peer address for event logs (the conn may
// already be half-closed; RemoteAddr still works on TCP conns).
func remoteAddr(conn net.Conn) string {
	if a := conn.RemoteAddr(); a != nil {
		return a.String()
	}
	return "?"
}

// BeginShutdown flips the server into draining mode: no new requests are
// read, and every pending read is unblocked by an immediate deadline so
// its connection can observe the drain. Requests in flight complete and
// their replies are written before the goroutines exit.
func (s *Server) BeginShutdown() {
	s.closing.Store(true)
	s.connMu.Lock()
	for c := range s.conns {
		_ = c.SetReadDeadline(time.Now())
	}
	s.connMu.Unlock()
}

// Drain waits for every connection goroutine to finish, up to timeout;
// stragglers are then force-closed and given a final second. It reports
// whether the drain completed without force-closing.
func (s *Server) Drain(timeout time.Duration) bool {
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return true
	case <-time.After(timeout):
	}
	s.connMu.Lock()
	for c := range s.conns {
		_ = c.Close()
	}
	s.connMu.Unlock()
	select {
	case <-done:
	case <-time.After(time.Second):
	}
	return false
}

// ServeSidecar serves the HTTP sidecar on addr until the returned stop
// is called: the Prometheus exposition of Config.Reg on /metrics, a liveness probe on
// /healthz (503 once the server drains), and the net/http/pprof
// endpoints under /debug/pprof/. It prints the metrics URL to out.
func (s *Server) ServeSidecar(addr string, out io.Writer) (stop func(), err error) {
	ml, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	mux := http.NewServeMux()
	mux.Handle("/metrics", s.cfg.Reg.Handler())
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		if s.closing.Load() {
			http.Error(w, "draining", http.StatusServiceUnavailable)
			return
		}
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	hs := &http.Server{Handler: mux}
	go func() { _ = hs.Serve(ml) }()
	fmt.Fprintf(out, "metrics on http://%s/metrics\n", ml.Addr())
	return func() { _ = hs.Close() }, nil
}

// Run serves l on s until SIGINT or SIGTERM, then drains the connections
// for up to drainTimeout (reporting a force-close on out) and prints
// summary's line to out once no connection can change the counters.
func Run(s *Server, l net.Listener, drainTimeout time.Duration, out io.Writer, summary func() string) error {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sig)
	done := make(chan struct{})
	defer close(done)
	go func() {
		select {
		case <-sig:
			s.BeginShutdown()
			_ = l.Close()
		case <-done:
		}
	}()
	err := s.Serve(l)
	if !s.Drain(drainTimeout) {
		fmt.Fprintf(out, "drain timed out after %v; connections force-closed\n", drainTimeout)
	}
	fmt.Fprintln(out, summary())
	return err
}
