package gen

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"
)

// serviceInstanceJSON encodes the solve-service shape — a
// LargeField(devices, chargers) instance, heterogeneous fleet optional —
// in the three layouts clients send: indented (EncodeInstance), compact,
// and python-style ", " / ": " separators.
func serviceInstanceJSON(t testing.TB, seed int64, mobile bool) (indented, compact, spaced []byte) {
	t.Helper()
	p := LargeField(200, 20)
	if mobile {
		p = HeterogeneousFleet(40, 6, 0.5)
	}
	in, err := Instance(seed, p)
	if err != nil {
		t.Fatal(err)
	}
	if indented, err = EncodeInstance(in); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := json.Compact(&buf, indented); err != nil {
		t.Fatal(err)
	}
	compact = buf.Bytes()
	spaced = bytes.ReplaceAll(bytes.ReplaceAll(compact, []byte(`,"`), []byte(`, "`)), []byte(`":`), []byte(`": `))
	return indented, compact, spaced
}

// TestScanAcceptsServiceShapes keeps the fast path live: every layout of
// a generated instance must be decoded by the scanner itself (not the
// fallback), into exactly the reference's instance.
func TestScanAcceptsServiceShapes(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		for _, mobile := range []bool{false, true} {
			indented, compact, spaced := serviceInstanceJSON(t, seed, mobile)
			for _, raw := range [][]byte{indented, compact, spaced} {
				if _, ok := scanInstance(raw); !ok {
					t.Fatalf("seed %d mobile %v: scanner declined %.80q", seed, mobile, raw)
				}
				checkScanAgainstReference(t, raw)
			}
		}
	}
}

// TestScanSolveRequestMatchesReference pins the envelope scanner against
// encoding/json on the request shapes the service sees: it must accept
// plain solve lines (either key order, any whitespace, scheduler
// optional) with the reference's instance and scheduler, and decline
// every other verb, null, duplicate or unknown key.
func TestScanSolveRequestMatchesReference(t *testing.T) {
	_, inst, spaced := serviceInstanceJSON(t, 7, false)
	accept := []string{
		fmt.Sprintf(`{"instance":%s,"scheduler":"CCSGA"}`, inst),
		fmt.Sprintf(`{"scheduler":"CCSA","instance":%s}`, inst),
		fmt.Sprintf(`{"instance": %s, "scheduler": "CCSGA"}`, spaced),
		fmt.Sprintf(` {"instance":%s} `, inst),
		fmt.Sprintf(`{"instance":%s,"scheduler":""}`, inst),
	}
	decline := []string{
		`{"stats":true}`,
		fmt.Sprintf(`{"instance":%s,"register":true}`, inst),
		fmt.Sprintf(`{"instance":%s,"scheduler":"CCSGA","scheduler":"CCSA"}`, inst),
		fmt.Sprintf(`{"instance":%s,"scheduler":null}`, inst),
		fmt.Sprintf(`{"Instance":%s}`, inst),
		fmt.Sprintf(`{"instance":%s,"scheduler":"CCSGA"} x`, inst),
		fmt.Sprintf(`{"instance":%s,"scheduler":"CC\u0053GA"}`, inst),
		`{"scheduler":"CCSGA"}`,
		`{"instance":null}`,
		`{"instance":[]}`,
		`{}`,
		``,
	}
	for _, line := range accept {
		in, name, ok := ScanSolveRequest([]byte(line))
		if !ok {
			t.Fatalf("declined solve line %.80q", line)
		}
		var req struct {
			Instance  json.RawMessage `json:"instance"`
			Scheduler string          `json:"scheduler"`
		}
		if err := json.Unmarshal([]byte(line), &req); err != nil {
			t.Fatal(err)
		}
		ref, err := decodeReference(req.Instance)
		if err != nil {
			t.Fatal(err)
		}
		if name != req.Scheduler {
			t.Errorf("scheduler %q, reference %q", name, req.Scheduler)
		}
		sameInstance(t, in, ref)
	}
	for _, line := range decline {
		if _, _, ok := ScanSolveRequest([]byte(line)); ok {
			t.Errorf("accepted %.80q", line)
		}
	}
}

// BenchmarkParseInstance compares the scanner with the encoding/json
// reference on the solve-service instance shape (neither validates).
func BenchmarkParseInstance(b *testing.B) {
	_, compact, _ := serviceInstanceJSON(b, 7, false)
	for _, bc := range []struct {
		name  string
		parse func([]byte) error
	}{
		{"scan", func(d []byte) error { _, err := ParseInstance(d); return err }},
		{"reference", func(d []byte) error { _, err := decodeReference(d); return err }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(compact)))
			for i := 0; i < b.N; i++ {
				if err := bc.parse(compact); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
