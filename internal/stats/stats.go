// Package stats provides the descriptive statistics used by the experiment
// harness: means, standard deviations, confidence intervals, quantiles and
// paired-ratio summaries.
package stats

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// ErrEmpty is returned by summaries of empty samples.
var ErrEmpty = errors.New("stats: empty sample")

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Variance returns the unbiased sample variance of xs (n-1 denominator).
// It returns 0 for samples of size < 2.
func Variance(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	var ss float64
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return ss / float64(len(xs)-1)
}

// StdDev returns the sample standard deviation of xs.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// Min returns the minimum of xs; +Inf for an empty slice.
func Min(xs []float64) float64 {
	m := math.Inf(1)
	for _, x := range xs {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the maximum of xs; -Inf for an empty slice.
func Max(xs []float64) float64 {
	m := math.Inf(-1)
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

// Quantile returns the q-quantile (0 <= q <= 1) of xs using linear
// interpolation between order statistics. It returns an error for an empty
// sample or q outside [0,1].
func Quantile(xs []float64, q float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	if q < 0 || q > 1 {
		return 0, fmt.Errorf("stats: quantile %v outside [0,1]", q)
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	if len(sorted) == 1 {
		return sorted[0], nil
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac, nil
}

// Median returns the median of xs, or 0 for an empty sample.
func Median(xs []float64) float64 {
	m, err := Quantile(xs, 0.5)
	if err != nil {
		return 0
	}
	return m
}

// Summary holds the descriptive statistics of a sample.
type Summary struct {
	N      int
	Mean   float64
	StdDev float64
	Min    float64
	Max    float64
	Median float64
	// CI95 is the half-width of the 95% normal-approximation confidence
	// interval around Mean.
	CI95 float64
}

// Summarize computes a Summary of xs. It returns ErrEmpty for an empty
// sample.
func Summarize(xs []float64) (Summary, error) {
	if len(xs) == 0 {
		return Summary{}, ErrEmpty
	}
	sd := StdDev(xs)
	return Summary{
		N:      len(xs),
		Mean:   Mean(xs),
		StdDev: sd,
		Min:    Min(xs),
		Max:    Max(xs),
		Median: Median(xs),
		CI95:   1.96 * sd / math.Sqrt(float64(len(xs))),
	}, nil
}

// String renders the summary as "mean ± ci95 [min, max] (n=N)".
func (s Summary) String() string {
	return fmt.Sprintf("%.3f ± %.3f [%.3f, %.3f] (n=%d)",
		s.Mean, s.CI95, s.Min, s.Max, s.N)
}

// RatioOfMeans returns Mean(num)/Mean(den). It is the estimator used for
// the paper's "X% lower than Y" claims: averages are compared, not
// per-instance ratios. It returns an error when den has zero mean or
// either sample is empty.
func RatioOfMeans(num, den []float64) (float64, error) {
	if len(num) == 0 || len(den) == 0 {
		return 0, ErrEmpty
	}
	d := Mean(den)
	if d == 0 {
		return 0, errors.New("stats: zero denominator mean")
	}
	return Mean(num) / d, nil
}

// Gini returns the Gini coefficient of a nonnegative sample: 0 for
// perfectly equal values, approaching 1 as one element dominates. It is
// the fairness metric of the cost-sharing comparison. Negative inputs or
// an empty/zero-sum sample yield an error.
func Gini(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	if sorted[0] < 0 {
		return 0, errors.New("stats: Gini requires nonnegative values")
	}
	n := float64(len(sorted))
	var cum, total float64
	for i, v := range sorted {
		cum += float64(i+1) * v
		total += v
	}
	if total == 0 {
		return 0, errors.New("stats: Gini of all-zero sample")
	}
	return (2*cum)/(n*total) - (n+1)/n, nil
}
