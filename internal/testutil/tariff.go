package testutil

import "repro/internal/pricing"

// MustTiered is pricing.NewTiered that panics on invalid tiers, for
// tariffs built inline in test fixtures.
func MustTiered(tiers []pricing.Tier) pricing.Tariff {
	t, err := pricing.NewTiered(tiers)
	if err != nil {
		panic(err)
	}
	return t
}
