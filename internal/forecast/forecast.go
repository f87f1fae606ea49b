// Package forecast provides the time-series estimator the proactive
// charging policy uses to anticipate battery depletion: Holt's linear
// (level + trend) smoothing.
package forecast

import (
	"fmt"
	"math"
)

// Holt is Holt's linear method: smoothed level plus smoothed trend,
// extrapolating level + steps·trend.
type Holt struct {
	alpha float64
	beta  float64
	level float64
	trend float64
	n     int
}

// NewHolt returns a Holt forecaster with level smoothing alpha and trend
// smoothing beta, both in (0, 1].
func NewHolt(alpha, beta float64) (*Holt, error) {
	if alpha <= 0 || alpha > 1 || math.IsNaN(alpha) {
		return nil, fmt.Errorf("forecast: alpha %v outside (0,1]", alpha)
	}
	if beta <= 0 || beta > 1 || math.IsNaN(beta) {
		return nil, fmt.Errorf("forecast: beta %v outside (0,1]", beta)
	}
	return &Holt{alpha: alpha, beta: beta}, nil
}

// Observe feeds the next value of the series.
func (h *Holt) Observe(v float64) {
	switch h.n {
	case 0:
		h.level = v
	case 1:
		h.trend = v - h.level
		h.level = v
	default:
		prevLevel := h.level
		h.level = h.alpha*v + (1-h.alpha)*(h.level+h.trend)
		h.trend = h.beta*(h.level-prevLevel) + (1-h.beta)*h.trend
	}
	h.n++
}

// Forecast extrapolates steps observations ahead (1 = next value).
func (h *Holt) Forecast(steps int) float64 {
	if steps < 0 {
		steps = 0
	}
	return h.level + float64(steps)*h.trend
}

// N returns the number of observations seen.
func (h *Holt) N() int { return h.n }
