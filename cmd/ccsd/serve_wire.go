// This file speaks the binary frame protocol (internal/wire) on a -serve
// connection. The frames are a compact framing alternative over the same
// request/response semantics as the newline-JSON path: both funnel into
// solveServer.handle, so accounting, caching rules, and session logic
// are written once.
//
// Payload formats (all integers are uvarints, floats are 8 LE IEEE-754
// bytes, strings/bytes are length-prefixed):
//
//	TRegister  scheduler string, instance JSON (rest of payload)
//	TSession   session id, schedule block
//	TDelta     session id, op count, then per op:
//	             opcode 1 (join):   id, x f64, y f64, demand f64, moveRate f64
//	             opcode 2 (leave):  id
//	             opcode 3 (demand): id, demand f64
//	             opcode 4 (tariff): charger id, kind byte, params
//	               kind 0 linear:   rate f64
//	               kind 1 powerlaw: coeff f64, exponent f64
//	               kind 2 tiered:   tier count, per tier upTo f64, rate f64
//	TSchedule  schedule block
//	TClose     session id            → TOK (empty)
//	TStats     (empty)               → TOK carrying the stats JSON
//	TError     message bytes (whole payload)
//
//	schedule block: cost f64, passes, switches, flags byte (bit0 =
//	Nash stable, bit1 = repaired), coalition count, then per
//	coalition: charger id
//	string, member count, member id strings.

package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"net"
	"strconv"

	"repro/internal/gen"
	"repro/internal/wire"
)

// Binary delta opcodes, mirroring the JSON op names.
const (
	opcodeJoin   = 1
	opcodeLeave  = 2
	opcodeDemand = 3
	opcodeTariff = 4
)

// serveBinary speaks the frame protocol until the client hangs up, a
// read fails, the idle timeout fires, or the server drains. A read
// failure is accounted by netserve; an oversized payload or a truncated
// or garbled frame (bad magic mid-stream, wrong version, overflowing
// length) gets a final TError frame before the hangup — same
// never-silent policy as the JSON path.
func (s *solveServer) serveBinary(conn net.Conn, br *bufio.Reader) {
	r := wire.NewReader(br, maxRequestBytes)
	defer r.Release()
	w := wire.NewWriter(conn)
	var scratch []byte // response payload build buffer, reused per frame
	for s.Next(conn) {
		typ, payload, err := r.ReadFrame()
		if err != nil {
			if msg := s.Ended(conn, err); msg != "" {
				_ = w.WriteFrame(wire.TError, []byte(msg))
			}
			return
		}
		var ok bool
		if scratch, ok = s.handleFrame(w, typ, payload, scratch); !ok {
			return
		}
	}
}

// handleFrame answers one frame; it reports false when the response
// write failed (silent close, like the JSON path). Requests with
// undecodable payloads are counted as failures and answered with
// TError, keeping the connection alive — the framing is intact, only
// the message was bad. Response payloads build in scratch, which is
// returned (possibly grown) for the next frame — WriteFrame copies it
// to its own buffer, so reuse is safe.
func (s *solveServer) handleFrame(w *wire.Writer, typ wire.Type, payload, scratch []byte) ([]byte, bool) {
	writeErr := func(msg string) ([]byte, bool) {
		return scratch, w.WriteFrame(wire.TError, []byte(msg)) == nil
	}
	badPayload := func(err error) ([]byte, bool) {
		s.requests.Add(1)
		s.failures.Add(1)
		return writeErr(fmt.Sprintf("bad %s payload: %v", frameName(typ), err))
	}
	switch typ {
	case wire.TRegister:
		d := wire.NewDecoder(payload)
		schedName := d.String()
		inst := d.Rest()
		if err := d.Done(); err != nil {
			return badPayload(err)
		}
		resp := s.handle(solveRequest{Register: true, Scheduler: schedName, Instance: json.RawMessage(inst)})
		if resp.Err != "" {
			return writeErr(resp.Err)
		}
		out := wire.AppendUvarint(scratch[:0], resp.Session)
		out = appendScheduleBlock(out, resp)
		return out, w.WriteFrame(wire.TSession, out) == nil
	case wire.TDelta:
		d := wire.NewDecoder(payload)
		id := d.Uvarint()
		deltas, err := decodeDeltaOps(d)
		if err != nil {
			return badPayload(err)
		}
		resp := s.handle(solveRequest{Session: id, Deltas: deltas})
		if resp.Err != "" {
			return writeErr(resp.Err)
		}
		out := appendScheduleBlock(scratch[:0], resp)
		return out, w.WriteFrame(wire.TSchedule, out) == nil
	case wire.TClose:
		d := wire.NewDecoder(payload)
		id := d.Uvarint()
		if err := d.Done(); err != nil {
			return badPayload(err)
		}
		resp := s.handle(solveRequest{Session: id, Close: true})
		if resp.Err != "" {
			return writeErr(resp.Err)
		}
		return scratch, w.WriteFrame(wire.TOK, nil) == nil
	case wire.TStats:
		if err := wire.NewDecoder(payload).Done(); err != nil {
			return badPayload(err)
		}
		resp := s.handle(solveRequest{Stats: true})
		out, err := json.Marshal(resp.Stats)
		if err != nil {
			return writeErr(err.Error())
		}
		return scratch, w.WriteFrame(wire.TOK, out) == nil
	default:
		s.requests.Add(1)
		s.failures.Add(1)
		return writeErr(fmt.Sprintf("unexpected frame type 0x%02X", byte(typ)))
	}
}

// decodeDeltaOps decodes a TDelta payload's op list into the shared
// sessionDelta form the JSON path uses.
func decodeDeltaOps(d *wire.Decoder) ([]sessionDelta, error) {
	n := d.Uvarint()
	if n > uint64(maxRequestBytes) { // each op is ≥ 1 byte, so this is garbage
		return nil, fmt.Errorf("op count %d implausible", n)
	}
	deltas := make([]sessionDelta, 0, n)
	for k := uint64(0); k < n; k++ {
		switch op := d.Byte(); op {
		case opcodeJoin:
			dev := gen.DeviceDTO{ID: d.String(), X: d.Float64(), Y: d.Float64(),
				Demand: d.Float64(), MoveRate: d.Float64()}
			deltas = append(deltas, sessionDelta{Op: opJoin, Device: &dev})
		case opcodeLeave:
			deltas = append(deltas, sessionDelta{Op: opLeave, ID: d.String()})
		case opcodeDemand:
			deltas = append(deltas, sessionDelta{Op: opDemand, ID: d.String(), Demand: d.Float64()})
		case opcodeTariff:
			charger := d.String()
			dto, err := decodeTariffDTO(d)
			if err != nil {
				return nil, err
			}
			deltas = append(deltas, sessionDelta{Op: opTariff, Charger: charger, Tariff: dto})
		default:
			if err := d.Err(); err != nil {
				return nil, err
			}
			return nil, fmt.Errorf("unknown delta opcode %d", op)
		}
		if err := d.Err(); err != nil {
			return nil, err
		}
	}
	return deltas, d.Done()
}

// decodeTariffDTO decodes the binary tariff union into the JSON DTO the
// shared apply path consumes. Tier bounds are rendered with
// strconv.FormatFloat 'g'/-1, which DecodeTariff parses back to the
// identical float.
func decodeTariffDTO(d *wire.Decoder) (*gen.TariffDTO, error) {
	switch kind := d.Byte(); kind {
	case 0:
		return &gen.TariffDTO{Kind: "linear", Rate: d.Float64()}, d.Err()
	case 1:
		return &gen.TariffDTO{Kind: "powerlaw", Coeff: d.Float64(), Exponent: d.Float64()}, d.Err()
	case 2:
		n := d.Uvarint()
		if n > 1<<16 {
			return nil, fmt.Errorf("tier count %d implausible", n)
		}
		dto := &gen.TariffDTO{Kind: "tiered"}
		for t := uint64(0); t < n; t++ {
			upTo, rate := d.Float64(), d.Float64()
			bound := "inf"
			if !math.IsInf(upTo, 1) {
				bound = strconv.FormatFloat(upTo, 'g', -1, 64)
			}
			dto.Tiers = append(dto.Tiers, gen.TierDTO{UpTo: bound, Rate: rate})
		}
		return dto, d.Err()
	default:
		if err := d.Err(); err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("unknown tariff kind %d", kind)
	}
}

// appendScheduleBlock encodes a solve response's schedule: cost,
// convergence diagnostics, and coalition membership by agent ID.
func appendScheduleBlock(b []byte, resp solveResponse) []byte {
	b = wire.AppendFloat64(b, resp.Cost)
	b = wire.AppendUvarint(b, uint64(resp.Passes))
	b = wire.AppendUvarint(b, uint64(resp.Switches))
	var flags byte
	if resp.Nash {
		flags |= 1
	}
	if resp.Repaired {
		flags |= 2 // bit1: answered by the incremental repair path
	}
	b = append(b, flags)
	b = wire.AppendUvarint(b, uint64(len(resp.Coalitions)))
	for _, c := range resp.Coalitions {
		b = wire.AppendString(b, c.Charger)
		b = wire.AppendUvarint(b, uint64(len(c.Devices)))
		for _, id := range c.Devices {
			b = wire.AppendString(b, id)
		}
	}
	return b
}

// frameName labels a frame type for error messages.
func frameName(t wire.Type) string {
	switch t {
	case wire.TRegister:
		return "register"
	case wire.TDelta:
		return "delta"
	case wire.TClose:
		return "close"
	case wire.TStats:
		return "stats"
	default:
		return fmt.Sprintf("type-0x%02X", byte(t))
	}
}
