// Package metrics provides the statistics the paper's evaluation reports:
// means, percentiles, CDFs, windowed throughput, and the Pearson
// correlation used to validate the JCT proxy (§6.3).
package metrics

import (
	"fmt"
	"math"
	"sort"
)

// Summary holds order statistics of a sample.
type Summary struct {
	Count  int
	Mean   float64
	Min    float64
	Max    float64
	P50    float64
	P90    float64
	P99    float64
	StdDev float64
}

// Summarize computes a Summary of xs. An empty sample yields a zero
// Summary.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	var sum, sumSq float64
	for _, x := range s {
		sum += x
		sumSq += x * x
	}
	n := float64(len(s))
	mean := sum / n
	variance := sumSq/n - mean*mean
	if variance < 0 {
		variance = 0
	}
	return Summary{
		Count:  len(s),
		Mean:   mean,
		Min:    s[0],
		Max:    s[len(s)-1],
		P50:    Percentile(s, 0.50),
		P90:    Percentile(s, 0.90),
		P99:    Percentile(s, 0.99),
		StdDev: math.Sqrt(variance),
	}
}

// Percentile returns the p-quantile (0 <= p <= 1) of a sorted sample using
// linear interpolation between order statistics.
func Percentile(sorted []float64, p float64) float64 {
	n := len(sorted)
	switch {
	case n == 0:
		return 0
	case n == 1:
		return sorted[0]
	}
	if p <= 0 {
		return sorted[0]
	}
	if p >= 1 {
		return sorted[n-1]
	}
	pos := p * float64(n-1)
	lo := int(math.Floor(pos))
	frac := pos - float64(lo)
	if lo+1 >= n {
		return sorted[n-1]
	}
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

// CDFPoint is one point of an empirical CDF.
type CDFPoint struct {
	Value    float64
	Fraction float64
}

// CDF returns the empirical CDF of xs with at most maxPoints points
// (uniformly subsampled), suitable for plotting Figure 11.
func CDF(xs []float64, maxPoints int) []CDFPoint {
	if len(xs) == 0 {
		return nil
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if maxPoints <= 0 || maxPoints > len(s) {
		maxPoints = len(s)
	}
	out := make([]CDFPoint, 0, maxPoints)
	for i := 0; i < maxPoints; i++ {
		idx := i * (len(s) - 1) / max(maxPoints-1, 1)
		out = append(out, CDFPoint{Value: s[idx], Fraction: float64(idx+1) / float64(len(s))})
	}
	return out
}

// Pearson returns the Pearson correlation coefficient of paired samples.
func Pearson(xs, ys []float64) (float64, error) {
	if len(xs) != len(ys) {
		return 0, fmt.Errorf("metrics: length mismatch %d vs %d", len(xs), len(ys))
	}
	if len(xs) < 2 {
		return 0, fmt.Errorf("metrics: need at least 2 points, got %d", len(xs))
	}
	n := float64(len(xs))
	var sx, sy, sxx, syy, sxy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
		sxx += xs[i] * xs[i]
		syy += ys[i] * ys[i]
		sxy += xs[i] * ys[i]
	}
	cov := sxy/n - sx/n*sy/n
	vx := sxx/n - sx/n*sx/n
	vy := syy/n - sy/n*sy/n
	if vx <= 0 || vy <= 0 {
		return 0, fmt.Errorf("metrics: degenerate variance")
	}
	return cov / math.Sqrt(vx*vy), nil
}
