package testbed

import (
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"sync"
	"time"

	"repro/internal/geom"
	"repro/internal/rng"
)

// AgentConfig tunes agent-side connection robustness. The zero value
// reproduces the legacy behavior: one dial attempt, no deadlines.
type AgentConfig struct {
	// DialTimeout bounds each dial attempt; 0 means the OS default.
	DialTimeout time.Duration
	// MaxDialRetries is the number of extra dial attempts after a failed
	// one, with exponential backoff — lets an agent start before its
	// coordinator is up.
	MaxDialRetries int
	// HandshakeTimeout bounds the registration round trip; 0 = no deadline.
	HandshakeTimeout time.Duration
	// Conn, when non-nil, is used instead of dialing — the entry point for
	// fault injection (the tests wrap it with NewFaultConn) and in-memory
	// transports.
	Conn net.Conn
}

// dial establishes the agent's connection per the config.
func (cfg AgentConfig) dial(addr string) (net.Conn, error) {
	if cfg.Conn != nil {
		return cfg.Conn, nil
	}
	backoff := 50 * time.Millisecond
	var lastErr error
	for attempt := 0; attempt <= cfg.MaxDialRetries; attempt++ {
		if attempt > 0 {
			time.Sleep(backoff)
			backoff *= 2
		}
		c, err := net.DialTimeout("tcp", addr, cfg.DialTimeout)
		if err == nil {
			return c, nil
		}
		lastErr = err
	}
	return nil, lastErr
}

// handshake registers over jc and waits for the coordinator's ack,
// bounded by HandshakeTimeout.
func (cfg AgentConfig) handshake(jc *jsonConn, reg Message) error {
	if cfg.HandshakeTimeout > 0 {
		_ = jc.c.SetDeadline(time.Now().Add(cfg.HandshakeTimeout))
		defer func() { _ = jc.c.SetDeadline(time.Time{}) }()
	}
	if err := jc.send(reg); err != nil {
		return err
	}
	resp, err := jc.recv()
	if err != nil {
		return err
	}
	if resp.Type == MsgError {
		return fmt.Errorf("testbed: registration rejected: %s", resp.Err)
	}
	if resp.Type != MsgRegistered {
		return fmt.Errorf("testbed: unexpected registration reply %q", resp.Type)
	}
	return nil
}

// NoiseParams configures agent measurement noise.
type NoiseParams struct {
	// DemandStdFrac is the relative std-dev of residual-energy readings
	// (a device reports Demand·(1+ε), ε ~ N(0, DemandStdFrac)).
	DemandStdFrac float64
	// DistanceStdFrac is the relative std-dev of odometry readings.
	DistanceStdFrac float64
}

// DefaultNoise matches commodity hardware: fuel-gauge chips are a few
// percent off, odometry somewhat worse.
func DefaultNoise() NoiseParams {
	return NoiseParams{DemandStdFrac: 0.03, DistanceStdFrac: 0.05}
}

// DeviceState is the ground truth a device agent embodies.
type DeviceState struct {
	ID       string
	Pos      geom.Point
	DemandJ  float64 // true energy deficit
	MoveRate float64 // $/m
}

// DeviceAgent emulates one rechargeable node: it registers with the
// coordinator, answers status queries with noisy readings, and executes
// charge commands, reporting measured travel distance and stored energy.
type DeviceAgent struct {
	state DeviceState
	noise NoiseParams
	r     *rand.Rand

	conn *jsonConn
	done chan struct{}
	err  error
}

// StartDeviceAgent connects to the coordinator at addr, registers, and
// serves commands on a background goroutine until the connection closes.
func StartDeviceAgent(addr string, state DeviceState, noise NoiseParams, seed int64) (*DeviceAgent, error) {
	return StartDeviceAgentCfg(addr, state, noise, seed, AgentConfig{})
}

// StartDeviceAgentCfg is StartDeviceAgent with explicit connection
// robustness settings.
func StartDeviceAgentCfg(addr string, state DeviceState, noise NoiseParams, seed int64, cfg AgentConfig) (*DeviceAgent, error) {
	c, err := cfg.dial(addr)
	if err != nil {
		return nil, fmt.Errorf("testbed: device %s dial: %w", state.ID, err)
	}
	a := &DeviceAgent{
		state: state,
		noise: noise,
		r:     rng.Derive(seed, "device", state.ID),
		conn:  newJSONConn(c),
		done:  make(chan struct{}),
	}
	if err := cfg.handshake(a.conn, Message{
		Type: MsgRegister, Role: "device", ID: state.ID,
		PosX: state.Pos.X, PosY: state.Pos.Y,
	}); err != nil {
		_ = a.conn.close()
		return nil, err
	}
	go a.serve()
	return a, nil
}

func (a *DeviceAgent) serve() {
	defer close(a.done)
	for {
		req, err := a.conn.recv()
		if err != nil {
			if !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) {
				a.err = err
			}
			return
		}
		var resp Message
		switch req.Type {
		case MsgStatusReq:
			resp = Message{
				Type:     MsgStatus,
				ID:       a.state.ID,
				PosX:     a.state.Pos.X,
				PosY:     a.state.Pos.Y,
				DemandJ:  a.state.DemandJ * (1 + a.r.NormFloat64()*a.noise.DemandStdFrac),
				MoveRate: a.state.MoveRate,
			}
			if resp.DemandJ <= 0 {
				resp.DemandJ = 1 // a fuel gauge never reports nonpositive need
			}
		case MsgChargeCmd:
			target := geom.Pt(req.TargetX, req.TargetY)
			trueDist := a.state.Pos.Dist(target)
			measured := trueDist * (1 + a.r.NormFloat64()*a.noise.DistanceStdFrac)
			if measured < 0 {
				measured = 0
			}
			a.state.Pos = target
			resp = Message{
				Type:      MsgChargeDone,
				ID:        a.state.ID,
				DistanceM: measured,
				StoredJ:   a.state.DemandJ,
			}
			a.state.DemandJ = 0
		default:
			resp = Message{Type: MsgError, Err: fmt.Sprintf("device: unknown request %q", req.Type)}
		}
		resp.Seq = req.Seq
		if err := a.conn.send(resp); err != nil {
			a.err = err
			return
		}
	}
}

// Done is closed when the agent's serve loop exits (the coordinator hung
// up or an error occurred). Standalone agent processes block on it.
func (a *DeviceAgent) Done() <-chan struct{} { return a.done }

// Close shuts the agent's connection down and waits for its goroutine.
func (a *DeviceAgent) Close() error {
	err := a.conn.close()
	<-a.done
	if a.err != nil {
		return a.err
	}
	if errors.Is(err, net.ErrClosed) {
		return nil
	}
	return err
}

// ChargerState is the ground truth a charger agent embodies. Tariffs on
// the wire are power-law (coeff·E^exponent), the shape commodity bulk
// plans are fit with in this emulation.
type ChargerState struct {
	ID             string
	Pos            geom.Point
	Fee            float64
	TariffCoeff    float64
	TariffExponent float64
	Efficiency     float64
}

// ChargerAgent emulates one charging service provider: it registers its
// advertised parameters and answers billing requests for completed
// sessions.
type ChargerAgent struct {
	state ChargerState
	conn  *jsonConn
	done  chan struct{}
	err   error

	mu       sync.Mutex
	billed   float64
	sessions int
}

// StartChargerAgent connects, registers and serves on a background
// goroutine until the connection closes.
func StartChargerAgent(addr string, state ChargerState) (*ChargerAgent, error) {
	return StartChargerAgentCfg(addr, state, AgentConfig{})
}

// StartChargerAgentCfg is StartChargerAgent with explicit connection
// robustness settings.
func StartChargerAgentCfg(addr string, state ChargerState, cfg AgentConfig) (*ChargerAgent, error) {
	c, err := cfg.dial(addr)
	if err != nil {
		return nil, fmt.Errorf("testbed: charger %s dial: %w", state.ID, err)
	}
	a := &ChargerAgent{
		state: state,
		conn:  newJSONConn(c),
		done:  make(chan struct{}),
	}
	if err := cfg.handshake(a.conn, Message{
		Type: MsgRegister, Role: "charger", ID: state.ID,
		PosX: state.Pos.X, PosY: state.Pos.Y,
		Fee:            state.Fee,
		TariffCoeff:    state.TariffCoeff,
		TariffExponent: state.TariffExponent,
		Efficiency:     state.Efficiency,
	}); err != nil {
		_ = a.conn.close()
		return nil, err
	}
	go a.serve()
	return a, nil
}

func (a *ChargerAgent) serve() {
	defer close(a.done)
	for {
		req, err := a.conn.recv()
		if err != nil {
			if !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) {
				a.err = err
			}
			return
		}
		var resp Message
		switch req.Type {
		case MsgBillReq:
			if req.PurchasedJ < 0 {
				resp = Message{Type: MsgError, Err: "charger: negative purchase"}
				break
			}
			amount := a.state.Fee
			if req.PurchasedJ > 0 {
				amount += a.state.TariffCoeff * math.Pow(req.PurchasedJ, a.state.TariffExponent)
			}
			a.mu.Lock()
			a.billed += amount
			a.sessions++
			a.mu.Unlock()
			resp = Message{Type: MsgBill, ID: a.state.ID, AmountUSD: amount}
		default:
			resp = Message{Type: MsgError, Err: fmt.Sprintf("charger: unknown request %q", req.Type)}
		}
		resp.Seq = req.Seq
		if err := a.conn.send(resp); err != nil {
			a.err = err
			return
		}
	}
}

// Billed returns the total amount billed and the session count so far.
func (a *ChargerAgent) Billed() (amount float64, sessions int) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.billed, a.sessions
}

// Done is closed when the agent's serve loop exits.
func (a *ChargerAgent) Done() <-chan struct{} { return a.done }

// Close shuts the agent's connection down and waits for its goroutine.
func (a *ChargerAgent) Close() error {
	err := a.conn.close()
	<-a.done
	if a.err != nil {
		return a.err
	}
	if errors.Is(err, net.ErrClosed) {
		return nil
	}
	return err
}
