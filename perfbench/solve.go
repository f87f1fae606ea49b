package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"runtime"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/instcache"
	"repro/internal/par"
)

// Both stateless-solve workloads send gen.LargeField(200, 20) instances,
// about 41 KB of JSON each, as newline-JSON CCSGA requests.
const solveDevices, solveChargers = 200, 20

// solveCase is one stateless solve request and its expected answers.
type solveCase struct {
	line   []byte // request line, newline included
	inst   []byte // the compact instance JSON inside it
	expect []byte // expected reply to a cold solve
	hot    []byte // expected raw-tier replay of the same request
	// cost and noncoop are the CCSGA and NONCOOP costs of the instance;
	// passes and switches are the CCSGA run's diagnostics.
	cost, noncoop    float64
	passes, switches int
}

// coalitionJSON and solveResponse mirror ccsd's reply to a stateless
// solve field for field, so an in-process solve renders the exact bytes
// the server must send.
type coalitionJSON struct {
	Charger string   `json:"charger"`
	Devices []string `json:"devices"`
}

type solveResponse struct {
	Cost       float64         `json:"cost,omitempty"`
	Sessions   int             `json:"sessions,omitempty"`
	Coalitions []coalitionJSON `json:"coalitions,omitempty"`
	Cached     bool            `json:"cached,omitempty"`
}

// renderSolve renders a schedule as ccsd's reply line.
func renderSolve(in *core.Instance, s *core.Schedule, cost float64, cached bool) ([]byte, error) {
	resp := solveResponse{Cost: cost, Sessions: len(s.Coalitions), Cached: cached}
	for _, c := range s.Coalitions {
		cj := coalitionJSON{Charger: in.Chargers[c.Charger].ID}
		for _, i := range c.Members {
			cj.Devices = append(cj.Devices, in.Devices[i].ID)
		}
		resp.Coalitions = append(resp.Coalitions, cj)
	}
	b, err := json.Marshal(resp)
	return append(b, '\n'), err
}

// solveResult is one in-process replay of a stateless CCSGA solve.
type solveResult struct {
	in   *core.Instance
	cm   *core.CostModel
	res  *core.CCSGAResult
	cost float64
}

// solveInProcess runs the layer calls ccsd makes for a cold solve.
func solveInProcess(inst []byte) (*solveResult, error) {
	in, err := gen.DecodeInstance(inst)
	if err != nil {
		return nil, err
	}
	cm, err := core.NewCostModel(in)
	if err != nil {
		return nil, err
	}
	res, err := core.CCSGA(cm, core.CCSGAOptions{})
	if err != nil {
		return nil, err
	}
	return &solveResult{in: in, cm: cm, res: res, cost: cm.TotalCost(res.Schedule)}, nil
}

// makeSolveCases generates n seeded instances and solves each in process
// for its expected replies, on every CPU.
func makeSolveCases(r *rand.Rand, n int) ([]solveCase, error) {
	seeds := make([]int64, n)
	for i := range seeds {
		seeds[i] = r.Int63()
	}
	cases := make([]solveCase, n)
	err := par.Map(context.Background(), runtime.NumCPU(), n, func(_ context.Context, i int) error {
		in, err := gen.Instance(seeds[i], gen.LargeField(solveDevices, solveChargers))
		if err != nil {
			return err
		}
		pretty, err := gen.EncodeInstance(in)
		if err != nil {
			return err
		}
		var inst bytes.Buffer
		if err := json.Compact(&inst, pretty); err != nil {
			return err
		}
		c := &cases[i]
		const head = `{"instance":`
		c.line = append(append([]byte(head), inst.Bytes()...), `,"scheduler":"CCSGA"}`+"\n"...)
		c.inst = c.line[len(head) : len(head)+inst.Len()]
		sr, err := solveInProcess(c.inst)
		if err != nil {
			return err
		}
		if c.expect, err = renderSolve(sr.in, sr.res.Schedule, sr.cost, false); err != nil {
			return err
		}
		if c.hot, err = renderSolve(sr.in, sr.res.Schedule, sr.cost, true); err != nil {
			return err
		}
		c.cost = sr.cost
		c.noncoop = sr.cm.TotalCost(core.Noncooperative(sr.cm))
		c.passes, c.switches = sr.res.Passes, sr.res.Switches
		return nil
	})
	return cases, err
}

// costRatio is the summed CCSGA cost over the summed NONCOOP cost.
func costRatio(cases []solveCase) float64 {
	var c, nc float64
	for _, s := range cases {
		c += s.cost
		nc += s.noncoop
	}
	return c / nc
}

// verifier counts checked answers and keeps the first mismatch.
type verifier struct {
	attempted, failed int
	first             string
}

// check counts one checked answer; describe runs only for the first
// mismatch, so a passing check costs no formatting on the hot path.
func (v *verifier) check(ok bool, describe func() string) {
	v.attempted++
	if !ok {
		v.failed++
		if v.first == "" {
			v.first = describe()
		}
	}
}

func (v *verifier) fill(rep *report) {
	rep.attempted += v.attempted
	rep.failed += v.failed
	if v.first != "" {
		rep.info["first_mismatch"] = v.first
	}
}

// serviceStats is the part of ccsd's {"stats":true} reply the benchmark
// reads.
type serviceStats struct {
	Raw       instcache.Stats `json:"raw"`
	Solutions instcache.Stats `json:"solutions"`
}

// readStats asks the server for its counters on the client's connection.
func readStats(cl *client) (serviceStats, error) {
	line, err := cl.roundTrip([]byte(`{"stats":true}` + "\n"))
	if err != nil {
		return serviceStats{}, err
	}
	var resp struct {
		Stats *serviceStats `json:"stats"`
	}
	if err := json.Unmarshal(line, &resp); err != nil {
		return serviceStats{}, err
	}
	if resp.Stats == nil {
		return serviceStats{}, errors.New("stats reply without stats")
	}
	return *resp.Stats, nil
}

// hitRatio is hits over lookups between two snapshots. The raw tier also
// looks up the second snapshot's own stats request, which always misses;
// statsLookups discounts it.
func hitRatio(a, b instcache.Stats, statsLookups uint64) float64 {
	lookups := (b.Hits + b.Misses) - (a.Hits + a.Misses) - statsLookups
	if lookups == 0 {
		return 0
	}
	return float64(b.Hits-a.Hits) / float64(lookups)
}

// sendCases sends each case once and checks the reply against want.
func sendCases(cl *client, cases []solveCase, v *verifier, want func(*solveCase) []byte) error {
	for i := range cases {
		reply, err := cl.roundTrip(cases[i].line)
		if err != nil {
			return err
		}
		v.check(bytes.Equal(reply, want(&cases[i])), func() string { return fmt.Sprintf("reply %d differs from the in-process solve: %.120q", i, reply) })
	}
	return nil
}

// serveWindowMetrics fills the end-to-end metrics every serve workload
// shares but setup_s: throughput, latency and server CPU per op over the
// window, and the server's peak RSS.
func serveWindowMetrics(rep *report, run *serveRun, w window) error {
	rss, err := run.srv.peakRSSMB()
	if err != nil {
		return err
	}
	setLatency(rep, w)
	rep.info["client_gomaxprocs"] = runtime.GOMAXPROCS(0)
	rep.info["server_gomaxprocs"] = 1
	rep.info["pinned_cpu"] = pinCPU()
	rep.metrics.set("rss_mb", rss, "MB")
	return nil
}

// keyOf is the raw-tier key ccsd computes for a request line (the line
// without its newline).
func keyOf(line []byte) [32]byte { return sha256.Sum256(bytes.TrimSuffix(line, []byte("\n"))) }
