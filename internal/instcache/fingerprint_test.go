package instcache

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/core"
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
		switch tf := c.Tariff.(type) {
		case pricing.Linear:
			str("linear")
			f64(tf.Rate)
		case pricing.PowerLaw:
			str("powerlaw")
			f64(tf.Coeff)
			f64(tf.Exponent)
		case *pricing.Tiered:
			str("tiered")
			tiers := tf.Tiers()
			u64(uint64(len(tiers)))
			for _, tier := range tiers {
				f64(tier.UpTo)
				f64(tier.Rate)
			}
		default:
			return [32]byte{}, fmt.Errorf("instcache: charger %s: unsupported tariff type %T", c.ID, c.Tariff)
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
			c.Tariff = pricing.Linear{Rate: r.Float64()}
		case 1:
			c.Tariff = pricing.PowerLaw{Coeff: r.Float64(), Exponent: 0.5 + 0.5*r.Float64()}
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
// tariff kinds and mobile chargers, and over the unknown-tariff error.
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
	in.Chargers[0].Tariff = fakeTariff{}
	_, err := Fingerprint(in)
	_, want := streamingFingerprint(in)
	if err == nil || want == nil || err.Error() != want.Error() {
		t.Fatalf("unknown tariff: error %v, streaming error %v", err, want)
	}
}
