// Binary-protocol routing: a wire-frame client connection is spliced to
// a single backend for its whole life. The first frame decides the
// backend — a TRegister routes by its instance's canonical fingerprint,
// anything else goes to the ring's first live backend — and from then on
// bytes flow both ways untouched, so responses are byte-identical to a
// direct connection and session state (which lives on the backend,
// addressed by per-backend session IDs) stays coherent.
//
// The trade against the JSON path: no per-request admission control or
// replay caching (session verbs are stateful), and a backend death cuts
// the connection — the client re-registers through the router and lands
// on a live backend, paying one cold solve. DESIGN §8 spells out the
// contract.
package router

import (
	"bufio"
	"io"
	"net"
	"time"

	"repro/internal/gen"
	"repro/internal/wire"
)

// serveBinary proxies one binary client connection.
func (rt *Router) serveBinary(conn net.Conn, br *bufio.Reader) {
	rt.binConns.Add(1)
	w := wire.NewWriter(conn)
	r := wire.NewReader(br, maxRequestBytes)
	typ, payload, err := r.ReadFrame()
	if err != nil {
		if msg := rt.Ended(conn, err); msg != "" {
			_ = w.WriteFrame(wire.TError, []byte(msg))
		}
		return
	}
	h := rt.binaryKeyHash(typ, payload)
	owner := rt.ring.owner(h, rt.alive)
	if owner < 0 {
		_ = w.WriteFrame(wire.TError, []byte("no healthy backend"))
		return
	}
	b := rt.backends[owner]
	up, err := net.DialTimeout("tcp", b.addr, rt.cfg.DialTimeout)
	if err != nil {
		b.noteError()
		rt.log.Event("binary_dial_failed", "backend", b.addr, "err", err)
		_ = w.WriteFrame(wire.TError, []byte("backend unavailable: "+err.Error()))
		return
	}
	b.binConns.Add(1)
	defer b.binConns.Add(-1)
	uw := wire.NewWriter(up)
	if err := uw.WriteFrame(typ, payload); err != nil {
		b.noteError()
		_ = up.Close()
		_ = w.WriteFrame(wire.TError, []byte("backend unavailable: "+err.Error()))
		return
	}
	r.Release()
	// Idle reaping of a spliced connection is delegated to the backend's
	// own -conn-idle-timeout; clear the sniff-time deadline so long-lived
	// sessions survive (BeginShutdown re-arms it to cut the splice).
	_ = conn.SetReadDeadline(time.Time{})

	done := make(chan struct{}, 2)
	go func() {
		_, _ = io.Copy(up, br) // client -> backend (remaining frames)
		done <- struct{}{}
	}()
	go func() {
		_, _ = io.Copy(conn, up) // backend -> client
		done <- struct{}{}
	}()
	<-done
	// Either side hung up (or the drain deadline fired): close both so
	// the other copy unblocks, then reap it.
	_ = up.Close()
	_ = conn.Close()
	<-done
}

// binaryKeyHash positions the first frame on the ring: a TRegister by
// its instance fingerprint, everything else at point zero (the first
// live backend). A garbled register payload also falls back to zero —
// the backend will answer the protocol error itself.
func (rt *Router) binaryKeyHash(typ wire.Type, payload []byte) uint64 {
	if typ != wire.TRegister {
		return 0
	}
	d := wire.NewDecoder(payload)
	name := d.String()
	inst := d.Rest()
	if d.Done() != nil {
		return 0
	}
	in, err := gen.ParseInstance(inst)
	if err != nil {
		return 0
	}
	key, err := registerKey(in, name)
	if err != nil {
		return 0
	}
	return keyHash(key.Sum)
}
