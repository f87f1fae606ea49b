package main

import (
	"bytes"
	"testing"

	"repro/internal/gen"
)

// FuzzServeLine is the differential referee for ccsd's one-pass request
// decode: on any request line, a server reading it through the solve
// envelope scanner (parseLine) and a twin reading it through
// encoding/json (parseLineReference) must send the same reply bytes and
// store the same raw-tier replay.
func FuzzServeLine(f *testing.F) {
	small := solveLine(f, serveInstance(3, 0), "CCSGA")
	f.Add(small)
	f.Add(solveLine(f, serveInstance(2, 1), "CCSA"))
	f.Add(solveLine(f, serveInstance(2, 2), ""))
	f.Add(solveLine(f, serveInstance(1, 0), "MAGIC"))
	f.Add(bytes.ReplaceAll(bytes.ReplaceAll(small, []byte(`,"`), []byte(`, "`)), []byte(`":`), []byte(`": `)))
	f.Add(bytes.Replace(small, []byte(`"demandJ":100`), []byte(`"demandJ":-100`), 1))
	f.Add(bytes.Replace(small, []byte(`"feeUSD":8`), []byte(`"feeUSD":1e308`), -1))
	f.Add(bytes.Replace(small, []byte(`"scheduler"`), []byte(`"Scheduler"`), 1))
	f.Add([]byte(`{"instance":{"fieldSide":100,"devices":[],"chargers":[]}}`))
	f.Add([]byte(`{"instance":null,"scheduler":"CCSGA"}`))
	f.Add([]byte(`{"stats":true}`))
	f.Add([]byte(`{"register":true}`))
	f.Add([]byte(`{"session":3,"close":true}`))
	f.Add([]byte(`{nonsense`))
	f.Add([]byte(`{}`))
	f.Fuzz(func(t *testing.T, line []byte) {
		// Solving is not what is under test: keep instances small enough
		// that even OPT answers at once.
		if len(line) > 8<<10 {
			return
		}
		if in, _, ok := gen.ScanSolveRequest(line); ok && len(in.Devices) > 8 {
			return
		}
		fast, slow := fuzzServer(t), fuzzServer(t)
		req, err := parseLine(line)
		gotOut, gotReplay := fast.respond(req, err)
		req, err = parseLineReference(line)
		wantOut, wantReplay := slow.respond(req, err)
		if !bytes.Equal(gotOut, wantOut) || !bytes.Equal(gotReplay, wantReplay) {
			t.Fatalf("line %q:\n scanned:   %s replay %s\n reference: %s replay %s", line, gotOut, gotReplay, wantOut, wantReplay)
		}
		if fast.failures.Load() != slow.failures.Load() {
			t.Fatalf("line %q: failures %d vs %d", line, fast.failures.Load(), slow.failures.Load())
		}
	})
}

func fuzzServer(t *testing.T) *solveServer {
	srv, err := newSolveServer(serveOpts{cacheSize: 4, maxSessions: 4})
	if err != nil {
		t.Fatal(err)
	}
	return srv
}
