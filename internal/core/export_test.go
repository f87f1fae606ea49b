package core

import "sync/atomic"

// CountPrices runs f and returns how many tariff prices core took
// meanwhile.
func CountPrices(f func()) int {
	var n atomic.Int64
	priceCount = &n
	defer func() { priceCount = nil }()
	f()
	return int(n.Load())
}
