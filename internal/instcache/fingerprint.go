// Package instcache memoizes scheduler solutions keyed by a canonical
// instance fingerprint, so a service front end (cmd/ccsd's serve mode) can
// answer repeated solve requests without re-running coalition formation.
// The cache is a bounded LRU with single-flight collapsing: concurrent
// requests for the same (instance, scheduler, options) triple share one
// solve instead of racing duplicates.
package instcache

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"sync"

	"repro/internal/core"
	"repro/internal/pricing"
)

// Fingerprint hashes an instance into a canonical 32-byte digest. Two
// instances collide exactly when every field that affects a solve is
// identical: field bounds, device order/ID/position/demand/move rate, and
// charger order/ID/position/fee/efficiency/capacity/tariff. Floats are
// hashed by bit pattern (math.Float64bits), so 0.1+0.2 and 0.3 are
// different instances — the cache never conflates inputs that could solve
// differently. Tariffs hash as a tagged union over their kind; a charger
// with no tariff is an error rather than a silent collision.
func Fingerprint(in *core.Instance) ([32]byte, error) {
	bp := fingerprintBufs.Get().(*[]byte)
	defer fingerprintBufs.Put(bp)
	b, err := appendCanonical((*bp)[:0], in)
	*bp = b
	if err != nil {
		return [32]byte{}, err
	}
	return sha256.Sum256(b), nil
}

// fingerprintBufs recycles Fingerprint's canonical byte streams, so a
// fingerprint costs one SHA-256 call over a reused buffer.
var fingerprintBufs = sync.Pool{New: func() any { return new([]byte) }}

// appendCanonical appends the byte stream Fingerprint hashes: every field
// as a big-endian uint64 (floats by bit pattern), each string prefixed by
// its length.
func appendCanonical(b []byte, in *core.Instance) ([]byte, error) {
	u64 := func(v uint64) { b = binary.BigEndian.AppendUint64(b, v) }
	f64 := func(v float64) { u64(math.Float64bits(v)) }
	str := func(s string) {
		u64(uint64(len(s)))
		b = append(b, s...)
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
		// Mobility attributes distinguish a mobile charger from its
		// stationary twin; without them the cache would serve the
		// wrong variant's schedule.
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
			return b, fmt.Errorf("instcache: charger %s: %s", c.ID, t.Name())
		}
	}
	return b, nil
}

// Key identifies one cacheable solve: the instance fingerprint plus the
// scheduler name and an opaque encoding of any options that change its
// output (empty when the scheduler runs with defaults).
type Key struct {
	Sum       [32]byte
	Scheduler string
	Options   string
}

// KeyFor fingerprints in and builds the cache key for a named scheduler.
func KeyFor(in *core.Instance, scheduler, options string) (Key, error) {
	sum, err := Fingerprint(in)
	if err != nil {
		return Key{}, err
	}
	return Key{Sum: sum, Scheduler: scheduler, Options: options}, nil
}
