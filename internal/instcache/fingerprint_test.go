package instcache

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/geom"
	"repro/internal/pricing"
	"repro/internal/testutil"
)

// streamingFingerprint is the SHA-256 stream Fingerprint used to feed 8
// bytes per write; it is kept as the referee for the one-call digest.
func streamingFingerprint(in *core.Instance) ([32]byte, error) {
	h := sha256.New()
	var buf [8]byte
	u64 := func(v uint64) {
		binary.BigEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	f64 := func(v float64) { u64(math.Float64bits(v)) }
	str := func(s string) {
		u64(uint64(len(s)))
		h.Write([]byte(s))
	}
	str("instcache-v1")
	f64(in.Field.MinX)
	f64(in.Field.MinY)
	f64(in.Field.MaxX)
	f64(in.Field.MaxY)
	u64(uint64(len(in.Devices)))
	for _, d := range in.Devices {
		str(d.ID)
		f64(d.Pos.X)
		f64(d.Pos.Y)
		f64(d.Demand)
		f64(d.MoveRate)
	}
	u64(uint64(len(in.Chargers)))
	for _, c := range in.Chargers {
		str(c.ID)
		f64(c.Pos.X)
		f64(c.Pos.Y)
		f64(c.Fee)
		f64(c.Efficiency)
		f64(c.Capacity)
		if c.Mobile {
			u64(1)
		} else {
			u64(0)
		}
		f64(c.MoveRate)
		f64(c.Speed)
		f64(c.TravelBudget)
		f64(c.Depot.X)
		f64(c.Depot.Y)
		switch t := &c.Tariff; t.Kind {
		case pricing.Linear:
			str("linear")
			f64(t.Rate)
		case pricing.PowerLaw:
			str("powerlaw")
			f64(t.Coeff)
			f64(t.Exponent)
		case pricing.Tiered:
			str("tiered")
			tiers := t.Tiers()
			u64(uint64(len(tiers)))
			for _, tier := range tiers {
				f64(tier.UpTo)
				f64(tier.Rate)
			}
		default:
			return [32]byte{}, fmt.Errorf("instcache: charger %s: %s", c.ID, t.Name())
		}
	}
	var sum [32]byte
	copy(sum[:], h.Sum(nil))
	return sum, nil
}

// randomFingerprintInstance draws an instance with every tariff kind,
// mobile chargers among stationary ones, and IDs of varied length.
func randomFingerprintInstance(r *rand.Rand) *core.Instance {
	in := &core.Instance{Field: geom.Square(100 + 900*r.Float64())}
	for i, n := 0, 1+r.Intn(40); i < n; i++ {
		in.Devices = append(in.Devices, core.Device{
			ID:       fmt.Sprintf("dev-%d%s", i, strings.Repeat("x", r.Intn(3))),
			Pos:      geom.Pt(1000*r.Float64(), 1000*r.Float64()),
			Demand:   1 + 500*r.Float64(),
			MoveRate: 0.05 * r.Float64(),
		})
	}
	for j, m := 0, 1+r.Intn(6); j < m; j++ {
		c := core.Charger{
			ID:         fmt.Sprintf("c%d", j),
			Pos:        geom.Pt(1000*r.Float64(), 1000*r.Float64()),
			Fee:        20 * r.Float64(),
			Efficiency: 0.5 + 0.5*r.Float64(),
		}
		switch r.Intn(3) {
		case 0:
			c.Tariff = pricing.Tariff{Kind: pricing.Linear, Rate: r.Float64()}
		case 1:
			c.Tariff = pricing.Tariff{Kind: pricing.PowerLaw, Coeff: r.Float64(), Exponent: 0.5 + 0.5*r.Float64()}
		default:
			c.Tariff = testutil.MustTiered([]pricing.Tier{
				{UpTo: 100 + 100*r.Float64(), Rate: 0.5},
				{UpTo: math.Inf(1), Rate: 0.25 * r.Float64()},
			})
		}
		if r.Intn(3) == 0 {
			c.Capacity = 1000 * r.Float64()
		}
		if r.Intn(2) == 0 {
			c.Mobile = true
			c.MoveRate = 0.1 * r.Float64()
			c.Speed = 5 * r.Float64()
			c.TravelBudget = 3000 * r.Float64()
			c.Depot = geom.Pt(1000*r.Float64(), 1000*r.Float64())
		}
		in.Chargers = append(in.Chargers, c)
	}
	return in
}

// TestFingerprintMatchesStreamingHash holds the one-call digest to the
// streaming one it replaced, over random instances covering all three
// tariff kinds and mobile chargers, and over the missing-tariff error.
func TestFingerprintMatchesStreamingHash(t *testing.T) {
	r := rand.New(rand.NewSource(27))
	for trial := 0; trial < 300; trial++ {
		in := randomFingerprintInstance(r)
		got, err := Fingerprint(in)
		if err != nil {
			t.Fatal(err)
		}
		want, err := streamingFingerprint(in)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("trial %d: one-call digest %x, streaming digest %x", trial, got, want)
		}
	}
	in := randomFingerprintInstance(r)
	in.Chargers[0].Tariff = pricing.Tariff{}
	_, err := Fingerprint(in)
	_, want := streamingFingerprint(in)
	if err == nil || want == nil || err.Error() != want.Error() {
		t.Fatalf("missing tariff: error %v, streaming error %v", err, want)
	}
}

// TestFingerprintPinned pins Fingerprint's digests across versions of
// the code, not only across its two implementations: a seeded
// LargeField(200, 20) instance, whose tariffs are all power laws, and
// variants with one linear tariff, one tiered tariff and one mobile
// charger. A digest that moves invalidates every cache keyed by it.
func TestFingerprintPinned(t *testing.T) {
	for _, tt := range []struct {
		name, want string
		edit       func(in *core.Instance)
	}{
		{"power laws", "fc3bc147d830e5c521df079e34391e4c2c718ade85ed863fc69d8c6af4084158", func(*core.Instance) {}},
		{"one linear", "1916492447f4e35ce9e191fcf589cd6913609f42e14de0a7a9c39d3485d24d83", func(in *core.Instance) {
			in.Chargers[0].Tariff = pricing.Tariff{Kind: pricing.Linear, Rate: 0.03}
		}},
		{"one tiered", "7ae42400c03f9e487c0654f58373e4511a7d0f8d3388e4db0507d5fa5067bdc9", func(in *core.Instance) {
			in.Chargers[1].Tariff = testutil.MustTiered([]pricing.Tier{{UpTo: 200, Rate: 0.05}, {UpTo: math.Inf(1), Rate: 0.02}})
		}},
		{"one mobile", "a7c167a86fd95f703da32f2bbdf33d332a9db4b3f3e4ed0a17e0df3bc55fcb97", func(in *core.Instance) {
			c := &in.Chargers[2]
			c.Mobile, c.MoveRate, c.Speed, c.TravelBudget, c.Depot = true, 0.05, 2, 3000, geom.Pt(10, 20)
		}},
	} {
		in, err := gen.Instance(7, gen.LargeField(200, 20))
		if err != nil {
			t.Fatal(err)
		}
		tt.edit(in)
		sum, err := Fingerprint(in)
		if err != nil {
			t.Fatal(err)
		}
		if got := hex.EncodeToString(sum[:]); got != tt.want {
			t.Errorf("%s: digest %s, pinned %s", tt.name, got, tt.want)
		}
	}
}
