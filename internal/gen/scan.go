package gen

import (
	"math"
	"math/bits"
	"strconv"
	"sync"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/pricing"
)

// The scanner below decodes the instance wire form in one pass over the
// bytes, straight into core.Instance. It accepts only a narrow grammar —
// the shape every encoder in this repo (and a stock JSON library)
// produces:
//
//   - object keys are exactly the DTO tags (case-sensitive), each at
//     most once per object, and no unknown keys;
//   - numbers are strictly valid JSON numbers, parsed by
//     strconv.ParseFloat exactly as encoding/json parses them, so every
//     float is bit-identical;
//   - strings carry no escapes, no control bytes and no non-ASCII bytes;
//   - no null values, and only the linear and powerlaw tariff kinds;
//   - JSON whitespace between tokens, and nothing but whitespace after
//     the closing brace.
//
// Anything else is "not mine": the scanner reports ok=false and the
// caller runs the encoding/json reference decoder, so every input the
// scanner declines — including every malformed one — gets exactly the
// reference's result and error text. Whatever the scanner accepts, the
// reference decodes without error into the same instance; the
// differential fuzzer FuzzDecodeInstance pins that.

// scanner is a cursor over one JSON document.
type scanner struct {
	data []byte
	pos  int
	// ids holds every agent ID read so far, back to back; devIDs[i] and
	// chIDs[j] locate device i's and charger j's ID in it. Once the
	// instance is read, every ID becomes a substring of one string built
	// from ids: one allocation per instance, not one per agent.
	ids    []byte
	devIDs []idSpan
	chIDs  []idSpan
}

// idSpan is one agent's ID as the byte range ids[lo:hi].
type idSpan struct{ lo, hi int }

// scanners recycles the scanners' ID buffers across documents.
var scanners = sync.Pool{New: func() any { return new(scanner) }}

// newScanner returns a pooled scanner over data; put hands it back.
func newScanner(data []byte) *scanner {
	s := scanners.Get().(*scanner)
	s.data, s.pos = data, 0
	s.ids, s.devIDs, s.chIDs = s.ids[:0], s.devIDs[:0], s.chIDs[:0]
	return s
}

// put returns s to the pool; it must not be used afterwards.
func (s *scanner) put() {
	s.data = nil
	scanners.Put(s)
}

// ws skips JSON whitespace.
func (s *scanner) ws() {
	for s.pos < len(s.data) {
		switch s.data[s.pos] {
		case ' ', '\t', '\n', '\r':
			s.pos++
		default:
			return
		}
	}
}

// lit consumes byte c after optional whitespace.
func (s *scanner) lit(c byte) bool {
	s.ws()
	if s.pos < len(s.data) && s.data[s.pos] == c {
		s.pos++
		return true
	}
	return false
}

// end reports whether only whitespace remains.
func (s *scanner) end() bool {
	s.ws()
	return s.pos == len(s.data)
}

// str reads a string with no escapes, control or non-ASCII bytes; the
// returned slice aliases the input.
func (s *scanner) str() ([]byte, bool) {
	s.ws()
	if s.pos >= len(s.data) || s.data[s.pos] != '"' {
		return nil, false
	}
	start := s.pos + 1
	for i := start; i < len(s.data); i++ {
		switch c := s.data[i]; {
		case c == '"':
			s.pos = i + 1
			return s.data[start:i], true
		case c < 0x20 || c == '\\' || c >= 0x80:
			return nil, false
		}
	}
	return nil, false
}

// num reads a strictly valid JSON number. While it validates, it
// gathers the decimal mantissa (up to 19 significant digits, so it fits
// a uint64) and the decimal exponent; inside the exact domain of
// decimalFloat it converts them itself, and only a number outside it
// (more digits, or |exponent| > 27) goes to strconv.ParseFloat.
func (s *scanner) num() (float64, bool) {
	s.ws()
	d, i := s.data, s.pos
	start := i
	neg := i < len(d) && d[i] == '-'
	if neg {
		i++
	}
	var (
		m  uint64 // significant digits, exact while nd <= 19
		nd int    // significant digits read: leading zeros do not count
		e  int    // decimal exponent of m
	)
	switch {
	case i < len(d) && d[i] == '0':
		i++
	case i < len(d) && d[i] >= '1' && d[i] <= '9':
		for ; i < len(d) && d[i] >= '0' && d[i] <= '9'; i++ {
			m = m*10 + uint64(d[i]-'0')
			nd++
		}
	default:
		return 0, false
	}
	if i < len(d) && d[i] == '.' {
		j := i + 1
		for ; j < len(d) && d[j] >= '0' && d[j] <= '9'; j++ {
			if m = m*10 + uint64(d[j]-'0'); m != 0 {
				nd++
			}
		}
		if j == i+1 {
			return 0, false
		}
		e, i = i+1-j, j
	}
	if i < len(d) && (d[i] == 'e' || d[i] == 'E') {
		i++
		eneg := i < len(d) && d[i] == '-'
		if eneg || i < len(d) && d[i] == '+' {
			i++
		}
		x, j := 0, i
		for ; j < len(d) && d[j] >= '0' && d[j] <= '9'; j++ {
			if x < 1e6 {
				x = x*10 + int(d[j]-'0')
			}
		}
		if j == i {
			return 0, false
		}
		switch i = j; {
		case x >= 1e6:
			e = x // saturated: left to strconv whatever the fraction shift
		case eneg:
			e -= x
		default:
			e += x
		}
	}
	var v float64
	if nd <= 19 && e >= -maxExactExp10 && e <= maxExactExp10 {
		v = decimalFloat(m, e)
		if neg {
			v = -v
		}
	} else {
		var err error
		if v, err = strconv.ParseFloat(string(d[start:i]), 64); err != nil {
			return 0, false // out of range: encoding/json rejects it too
		}
	}
	s.pos = i
	return v, true
}

// maxExactExp10 bounds the decimal exponents decimalFloat converts: 5^27
// is the largest power of five that fits a uint64.
const maxExactExp10 = 27

// pow10 holds the powers of ten a float64 represents exactly.
var pow10 = [...]float64{1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10,
	1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22}

// pow5 holds 5^k for every exponent in decimalFloat's domain.
var pow5 = func() (p [maxExactExp10 + 1]uint64) {
	p[0] = 1
	for k := 1; k < len(p); k++ {
		p[k] = p[k-1] * 5
	}
	return p
}()

// decimalFloat returns m × 10^e correctly rounded, for |e| <= 27, so
// bit-identical to strconv.ParseFloat. Clinger's fast path covers an
// exact mantissa (m <= 2^53) scaled by an exact power of ten (|e| <= 22):
// one correctly rounded multiply or divide. Otherwise m × 5^e or
// m / 5^-e is taken to a 64-bit integer with at least 11 bits below the
// float64's 53, any discarded nonzero bits ORed into its lowest bit
// (the sticky bit), so the one float64(uint64) rounding is correctly
// rounded; the power of two left over is exact, since every result in
// the domain is a normal float64.
func decimalFloat(m uint64, e int) float64 {
	switch {
	case m <= 1<<53 && e >= 0 && e < len(pow10):
		return float64(m) * pow10[e]
	case m <= 1<<53 && e < 0 && -e < len(pow10):
		return float64(m) / pow10[-e]
	case e >= 0:
		// The product's top 64 bits; when hi == 0, lz == 64 and top == lo.
		hi, lo := bits.Mul64(m, pow5[e])
		lz := bits.LeadingZeros64(hi)
		top := hi<<lz | lo>>(64-lz)
		if lo<<lz != 0 {
			top |= 1
		}
		return math.Ldexp(float64(top), 64-lz+e)
	}
	// mn is m shifted up to bit 63. Shifted left by n, the divisor's bit
	// length, it yields a quotient in [2^63, 2^64) when it is below the
	// divisor shifted up to bit 63, and by n-1 otherwise; either way the
	// high word stays below the divisor, as bits.Div64 requires.
	k := -e
	div := pow5[k]
	n := bits.Len64(div)
	lz := bits.LeadingZeros64(m)
	mn := m << lz
	t := n - 1
	if mn < div<<(64-n) {
		t = n
	}
	q, r := bits.Div64(mn>>(64-t), mn<<t, div)
	if r != 0 {
		q |= 1
	}
	return math.Ldexp(float64(q), -(lz + t + k))
}

// boolean reads true or false.
func (s *scanner) boolean() (v, ok bool) {
	s.ws()
	rest := s.data[s.pos:]
	switch {
	case len(rest) >= 4 && string(rest[:4]) == "true":
		s.pos += 4
		return true, true
	case len(rest) >= 5 && string(rest[:5]) == "false":
		s.pos += 5
		return false, true
	}
	return false, false
}

// object reads an object whose keys are exactly keys (each at most
// once), calling member with the key's index once the cursor sits on
// its value.
func (s *scanner) object(keys []string, member func(k int) bool) bool {
	if !s.lit('{') {
		return false
	}
	if s.lit('}') {
		return true
	}
	var seen uint64
	for {
		name, ok := s.str()
		if !ok || !s.lit(':') {
			return false
		}
		k := keyIndex(keys, name)
		if k < 0 || seen&(1<<k) != 0 {
			return false
		}
		seen |= 1 << k
		if !member(k) {
			return false
		}
		if !s.lit(',') {
			return s.lit('}')
		}
	}
}

func keyIndex(keys []string, name []byte) int {
	for k, key := range keys {
		if key == string(name) {
			return k
		}
	}
	return -1
}

// array reads an array, calling elem with the cursor on each element.
func (s *scanner) array(elem func() bool) bool {
	if !s.lit('[') {
		return false
	}
	if s.lit(']') {
		return true
	}
	for {
		if !elem() {
			return false
		}
		if !s.lit(',') {
			return s.lit(']')
		}
	}
}

// float reads a number into *dst.
func (s *scanner) float(dst *float64) bool {
	v, ok := s.num()
	*dst = v
	return ok
}

var instanceKeys = []string{"fieldSide", "devices", "chargers"}

// instance reads an instance object into in, appending its devices and
// chargers to in's arrays from length zero.
func (s *scanner) instance(in *core.Instance) (*core.Instance, bool) {
	var side float64
	in.Devices, in.Chargers = in.Devices[:0], in.Chargers[:0]
	ok := s.object(instanceKeys, func(k int) bool {
		switch k {
		case 0:
			return s.float(&side)
		case 1:
			return s.array(func() bool { return s.device(&in.Devices) })
		default:
			return s.array(func() bool { return s.charger(&in.Chargers) })
		}
	})
	if !ok {
		return nil, false
	}
	in.Field = geom.Square(side)
	// An absent or empty array decodes to nil, as in the reference.
	if len(in.Devices) == 0 {
		in.Devices = nil
	}
	if len(in.Chargers) == 0 {
		in.Chargers = nil
	}
	all := string(s.ids)
	for i, id := range s.devIDs {
		in.Devices[i].ID = all[id.lo:id.hi]
	}
	for j, id := range s.chIDs {
		in.Chargers[j].ID = all[id.lo:id.hi]
	}
	return in, true
}

var deviceKeys = []string{"id", "x", "y", "demandJ", "moveRatePerM"}

func (s *scanner) device(dst *[]core.Device) bool {
	var d core.Device
	floats := [...]*float64{1: &d.Pos.X, 2: &d.Pos.Y, 3: &d.Demand, 4: &d.MoveRate}
	lo := len(s.ids)
	ok := s.object(deviceKeys, func(k int) bool {
		if k == 0 {
			id, ok := s.str()
			s.ids = append(s.ids, id...)
			return ok
		}
		return s.float(floats[k])
	})
	*dst = append(*dst, d)
	s.devIDs = append(s.devIDs, idSpan{lo, len(s.ids)})
	return ok
}

var chargerKeys = []string{"id", "x", "y", "feeUSD", "tariff", "efficiency", "capacityJ",
	"mobile", "moveRatePerM", "speedMPerS", "travelBudgetM", "depotX", "depotY"}

func (s *scanner) charger(dst *[]core.Charger) bool {
	var c core.Charger
	floats := [...]*float64{1: &c.Pos.X, 2: &c.Pos.Y, 3: &c.Fee, 5: &c.Efficiency, 6: &c.Capacity,
		8: &c.MoveRate, 9: &c.Speed, 10: &c.TravelBudget, 11: &c.Depot.X, 12: &c.Depot.Y}
	lo := len(s.ids)
	ok := s.object(chargerKeys, func(k int) bool {
		var ok bool
		switch k {
		case 0:
			var id []byte
			id, ok = s.str()
			s.ids = append(s.ids, id...)
		case 4:
			c.Tariff, ok = s.tariff()
		case 7:
			c.Mobile, ok = s.boolean()
		default:
			ok = s.float(floats[k])
		}
		return ok
	})
	// A charger without a tariff decodes to kind "" in the reference,
	// which rejects it: not mine.
	*dst = append(*dst, c)
	s.chIDs = append(s.chIDs, idSpan{lo, len(s.ids)})
	return ok && c.Tariff.Kind != 0
}

// tariffKeys omits "tiers": tiered tariffs parse their bounds with
// fmt.Sscanf, so they are left to the reference decoder.
var tariffKeys = []string{"kind", "rate", "coeff", "exponent"}

func (s *scanner) tariff() (pricing.Tariff, bool) {
	var (
		kind                  []byte
		rate, coeff, exponent float64
	)
	floats := [...]*float64{1: &rate, 2: &coeff, 3: &exponent}
	ok := s.object(tariffKeys, func(k int) bool {
		if k == 0 {
			var ok bool
			kind, ok = s.str()
			return ok
		}
		return s.float(floats[k])
	})
	if !ok {
		return pricing.Tariff{}, false
	}
	switch string(kind) {
	case "linear":
		return pricing.Tariff{Kind: pricing.Linear, Rate: rate}, true
	case "powerlaw":
		return pricing.Tariff{Kind: pricing.PowerLaw, Coeff: coeff, Exponent: exponent}, true
	}
	return pricing.Tariff{}, false
}

// scanInstance decodes a whole document holding one instance object.
func scanInstance(data []byte) (*core.Instance, bool) {
	s := newScanner(data)
	defer s.put()
	in, ok := s.instance(new(core.Instance))
	if !ok || !s.end() {
		return nil, false
	}
	return in, true
}

// instances recycles ScanSolveRequest's instances, with their device and
// charger arrays.
var instances sync.Pool // of *core.Instance

// maxPooledAgents keeps one huge request from pinning its arrays in the
// pool for every later, smaller one.
const maxPooledAgents = 1 << 16

// ReleaseInstance hands an instance ScanSolveRequest returned back for a
// later ScanSolveRequest to decode into. The caller must not touch the
// instance or its arrays afterwards; its agent IDs are immutable strings
// and stay valid.
func ReleaseInstance(in *core.Instance) {
	if cap(in.Devices)+cap(in.Chargers) <= maxPooledAgents {
		instances.Put(in)
	}
}

var solveKeys = []string{"instance", "scheduler"}

// ScanSolveRequest decodes a stateless solve request line —
// {"instance":{…},"scheduler":"…"} with the scheduler optional — in one
// pass, under the scanner's narrow grammar. The instance is decoded but
// not validated. ok is false for any line outside the grammar, including
// every other request verb: the caller then decodes the line with
// encoding/json, which yields the same request whenever ok would have
// been true.
//
// The instance's device and charger arrays are recycled from instances
// handed to ReleaseInstance; a caller that keeps the instance simply never
// releases it.
func ScanSolveRequest(line []byte) (in *core.Instance, scheduler string, ok bool) {
	s := newScanner(line)
	defer s.put()
	dst, _ := instances.Get().(*core.Instance)
	if dst == nil {
		dst = new(core.Instance)
	}
	var name []byte
	ok = s.object(solveKeys, func(k int) bool {
		if k == 0 {
			var ok bool
			in, ok = s.instance(dst)
			return ok
		}
		var ok bool
		name, ok = s.str()
		return ok
	})
	if !ok || in == nil || !s.end() {
		ReleaseInstance(dst)
		return nil, "", false
	}
	return in, string(name), true
}
