package gen

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"strconv"
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

// numberEdges walk the edges of num's exact domain: signed zeros, the
// 2^53 boundary of Clinger's path (2^53+1 is a halfway case that rounds
// to even), 19 against 20 significant digits, leading fractional zeros,
// the exponents at and just past each path's limit (22 and 27), and
// values whose rounding only the sticky bit decides.
var numberEdges = []string{
	"0", "-0", "0e5", "-0.000", "0e-28", "0e400", "-0.0e-0",
	"9007199254740992", "9007199254740993", "-9007199254740993", "9007199254740995",
	"829.6843298592096403", "1949901364785028738e-12", "3288962536384984647e9",
	"1234567890123456789", "12345678901234567890", "9999999999999999999", "18446744073709551615",
	"1.234567890123456789", "1.2345678901234567890",
	"0.0001234567890123456789", "0.00012345678901234567890", "0.000000000000000000000000001",
	"1e22", "1e-22", "1e23", "1e-23", "1e27", "1e-27", "1e28", "1e-28",
	"9007199254740993e22", "9007199254740993e-22", "123456789012345678e23", "123456789012345678e-23",
	"9999999999999999999e27", "9999999999999999999e-27", "9999999999999999999e28", "9999999999999999999e-28",
	"1.5e28", "15e-28", "7e-10", "0.1", "0.2", "0.3", "2.2250738585072014e-308", "1.7976931348623157e308",
	"1e400", "-1e400", "1e-400", "4.9e-324", "1E+2", "1e0000000000000000000001", "1e-99999999999999",
}

// TestScanNumberEdges holds num to strconv.ParseFloat, bit for bit, on
// the domain's edges and on random 1–19 digit mantissas at every
// exponent from -30 to 30, with and without a fraction point.
func TestScanNumberEdges(t *testing.T) {
	for _, c := range numberEdges {
		checkScanNumber(t, []byte(c))
	}
	r := rand.New(rand.NewSource(1))
	for k := 0; k < 200000; k++ {
		digits := strconv.FormatUint(r.Uint64()>>r.Intn(64), 10)
		if len(digits) > 19 {
			digits = digits[:19]
		}
		if p := r.Intn(len(digits) + 1); p > 0 && p < len(digits) {
			digits = digits[:p] + "." + digits[p:]
		}
		checkScanNumber(t, []byte(fmt.Sprintf("%se%d", digits, r.Intn(61)-30)))
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
