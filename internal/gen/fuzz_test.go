package gen

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"strconv"
	"testing"

	"repro/internal/core"
	"repro/internal/instcache"
)

// FuzzDecodeInstance is the differential referee for the one-pass
// scanner: on any input, DecodeInstance (scanner first) and the
// encoding/json reference decoder plus Validate must either both accept
// instances with the same instcache.Fingerprint, or both reject with the
// same error text. Whatever the scanner alone accepts, the reference
// must decode without error into the same instance, valid or not.
func FuzzDecodeInstance(f *testing.F) {
	// Small seeds keep the fuzzer's minimization of new inputs fast.
	p := Default()
	p.NumDevices, p.NumChargers = 3, 2
	valid, err := Instance(1, p)
	if err != nil {
		f.Fatal(err)
	}
	data, err := EncodeInstance(valid)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(data)
	var compact bytes.Buffer
	if err := json.Compact(&compact, data); err != nil {
		f.Fatal(err)
	}
	f.Add(compact.Bytes())
	for _, seed := range scanSeeds {
		f.Add([]byte(seed))
	}
	f.Add([]byte("{}"))
	f.Add([]byte(`{"fieldSide":10,"devices":[],"chargers":[]}`))
	f.Add([]byte(`{"fieldSide":-1,"devices":[{"demandJ":-5}]}`))
	f.Fuzz(func(t *testing.T, raw []byte) {
		checkScanAgainstReference(t, raw)
	})
}

// FuzzScanNumber is the differential referee for the scanner's number
// conversion: on any input json.Valid accepts as a lone number, num must
// succeed exactly when strconv.ParseFloat does, with the same bits, and
// leave the cursor at the number's end.
func FuzzScanNumber(f *testing.F) {
	for _, c := range numberEdges {
		f.Add([]byte(c))
	}
	f.Add([]byte(" -12.5e3 "))
	f.Fuzz(func(t *testing.T, raw []byte) {
		lone := bytes.TrimSpace(raw)
		if !json.Valid(raw) || len(lone) == 0 || lone[0] != '-' && (lone[0] < '0' || lone[0] > '9') {
			return
		}
		checkScanNumber(t, bytes.TrimRight(raw, " \t\r\n"))
	})
}

// checkScanNumber holds num on raw — optional leading whitespace, then
// one JSON number — to strconv.ParseFloat.
func checkScanNumber(t *testing.T, raw []byte) {
	t.Helper()
	s := scanner{data: raw}
	got, ok := s.num()
	want, err := strconv.ParseFloat(string(bytes.TrimSpace(raw)), 64)
	switch {
	case ok != (err == nil):
		t.Fatalf("%q: num ok %v, strconv error %v", raw, ok, err)
	case ok && math.Float64bits(got) != math.Float64bits(want):
		t.Fatalf("%q: num %v (%#016x), strconv %v (%#016x)", raw, got, math.Float64bits(got), want, math.Float64bits(want))
	case ok && s.pos != len(raw):
		t.Fatalf("%q: cursor at %d, want %d", raw, s.pos, len(raw))
	}
}

// scanSeeds walk the edges of the scanner's grammar: python-style
// separators, every charger field, and one step outside the grammar at
// a time (signs, exponents, leading zeros, escapes, duplicates, case,
// nulls, unknown keys, tiered tariffs, trailing bytes).
var scanSeeds = []string{
	`{"fieldSide": 100, "devices": [{"id": "d0", "x": 1.5, "y": -0, "demandJ": 2e2, "moveRatePerM": 0.01}], "chargers": [{"id": "c0", "x": 3, "y": 4, "feeUSD": 5, "tariff": {"kind": "powerlaw", "coeff": 0.3, "exponent": 0.9}, "efficiency": 0.8}]}`,
	"\t{\r\n\"fieldSide\"\t:\n100 ,\"devices\":[{\"id\":\"d0\",\"x\":1,\"y\":1,\"demandJ\":100,\"moveRatePerM\":0.01}],\"chargers\":[{\"id\":\"c0\",\"x\":0,\"y\":0,\"feeUSD\":1,\"tariff\":{\"kind\":\"linear\",\"rate\":0.1},\"efficiency\":1}]} \n",
	`{"fieldSide":100,"devices":[{"id":"d0","x":1,"y":1,"demandJ":100,"moveRatePerM":0.01}],"chargers":[{"id":"c0","x":0,"y":0,"feeUSD":1,"tariff":{"kind":"linear","rate":0.1},"efficiency":0.9,"capacityJ":500,"mobile":true,"moveRatePerM":0.1,"speedMPerS":3,"travelBudgetM":4000,"depotX":5,"depotY":6}]}`,
	`{"fieldSide":100,"devices":[],"chargers":[{"id":"c0","x":0,"y":0,"feeUSD":1,"tariff":{"kind":"linear","rate":0.1},"efficiency":1,"mobile":false}]}`,
	`{"fieldSide":+10,"devices":[],"chargers":[]}`,
	`{"fieldSide":010,"devices":[],"chargers":[]}`,
	`{"fieldSide":1.,"devices":[],"chargers":[]}`,
	`{"fieldSide":.5,"devices":[],"chargers":[]}`,
	`{"fieldSide":1e,"devices":[],"chargers":[]}`,
	`{"fieldSide":1E+2,"devices":[],"chargers":[]}`,
	`{"fieldSide":-0.0e-0,"devices":[],"chargers":[]}`,
	`{"fieldSide":1e400,"devices":[],"chargers":[]}`,
	`{"fieldSide":Infinity,"devices":[],"chargers":[]}`,
	`{"fieldSide":null,"devices":null,"chargers":null}`,
	`{"fieldSide":10,"fieldSide":20}`,
	`{"FieldSide":10}`,
	`{"fieldSide":10,"extra":1}`,
	`{"fieldSide":"10"}`,
	`{"fieldSide":10} x`,
	`{"fieldSide":10}{}`,
	`{"fieldSide":10,}`,
	`{"devices":[{"id":"d\u0030","x":1,"y":1,"demandJ":1,"moveRatePerM":0}]}`,
	`{"devices":[{"id":"dé","x":1,"y":1,"demandJ":1,"moveRatePerM":0}]}`,
	`{"devices":[{"id":5,"x":1,"y":1,"demandJ":1,"moveRatePerM":0}]}`,
	`{"devices":[{"id":"d","x":1,"y":1,"demandJ":1,"moveRatePerM":0},]}`,
	`{"chargers":[{"id":"c","tariff":{"kind":"tiered","tiers":[{"upTo":"100","rate":2},{"upTo":"inf","rate":1}]},"efficiency":1}]}`,
	`{"chargers":[{"id":"c","tariff":{"kind":"bogus"},"efficiency":1}]}`,
	`{"chargers":[{"id":"c","efficiency":1}]}`,
	`{"chargers":[{"id":"c","tariff":{"kind":"linear","rate":1},"mobile":1}]}`,
	`{"chargers":[{"id":"c","tariff":{"kind":"linear","rate":1},"mobile":tru}]}`,
	`{"chargers":[{"id":"c","tariff":{"kind":"linear","rate":1,"kind":"linear"}}]}`,
}

// checkScanAgainstReference is the differential check behind
// FuzzDecodeInstance.
func checkScanAgainstReference(t *testing.T, raw []byte) {
	t.Helper()
	got, gotErr := DecodeInstance(raw)
	want, wantErr := decodeReference(raw)
	if wantErr == nil {
		wantErr = want.Validate()
	}
	switch {
	case (gotErr == nil) != (wantErr == nil):
		t.Fatalf("DecodeInstance error %v, reference error %v", gotErr, wantErr)
	case gotErr != nil && gotErr.Error() != wantErr.Error():
		t.Fatalf("error text differs:\n scan first: %v\n reference:  %v", gotErr, wantErr)
	case gotErr == nil:
		sameInstance(t, got, want)
	}
	if scanned, ok := scanInstance(raw); ok {
		ref, err := decodeReference(raw)
		if err != nil {
			t.Fatalf("scanner accepted %q, reference rejects it: %v", raw, err)
		}
		sameInstance(t, scanned, ref)
	}
}

// sameInstance requires equal fingerprints (floats by bit pattern) and
// deep equality.
func sameInstance(t *testing.T, a, b *core.Instance) {
	t.Helper()
	fa, errA := instcache.Fingerprint(a)
	fb, errB := instcache.Fingerprint(b)
	if errA != nil || errB != nil || fa != fb || !reflect.DeepEqual(a, b) {
		t.Fatalf("scanned instance differs from the reference decode:\n %+v\n %+v", a, b)
	}
}

// FuzzEncodeDecodeRoundTrip checks that every generated instance survives
// the JSON round trip.
func FuzzEncodeDecodeRoundTrip(f *testing.F) {
	f.Add(int64(1), 3, 2)
	f.Add(int64(99), 10, 4)
	f.Fuzz(func(t *testing.T, seed int64, n, m int) {
		if n < 1 || n > 20 || m < 1 || m > 8 {
			return
		}
		p := Default()
		p.NumDevices, p.NumChargers = n, m
		in, err := Instance(seed, p)
		if err != nil {
			t.Fatal(err)
		}
		data, err := EncodeInstance(in)
		if err != nil {
			t.Fatal(err)
		}
		back, err := DecodeInstance(data)
		if err != nil {
			t.Fatalf("round trip failed: %v", err)
		}
		if len(back.Devices) != n || len(back.Chargers) != m {
			t.Fatal("round trip changed sizes")
		}
	})
}
