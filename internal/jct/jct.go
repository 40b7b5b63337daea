// Package jct implements job-completion-time estimation for prefill-only
// requests (paper §6.3). Because a prefill-only request's output length is
// exactly one token, its JCT is a deterministic function of its input
// length and of how many of its tokens hit the prefix cache.
//
// The estimator is the paper's: the cache-miss-token count (nInput −
// nCached) scaled to seconds (Proxy), calibrated from one cold run at the
// profile length (CalibrateProxy). ProxyCorrelation reproduces the
// paper's check that this count correlates with true JCT at Pearson 0.987
// over a grid of ProfileGranularity (1,000-token) steps.
package jct

import (
	"fmt"

	"repro/internal/metrics"
)

// TimeFunc measures (or models) the execution time of a request with
// nInput tokens of which nCached hit the prefix cache.
type TimeFunc func(nInput, nCached int) (float64, error)

// ProfileGranularity is the paper's profiling grid step (§6.3).
const ProfileGranularity = 1000

// Proxy estimates JCT as SecondsPerMissToken · (nInput − nCached): the
// cache-miss-token proxy the paper adopts.
type Proxy struct {
	SecondsPerMissToken float64
}

// Estimate returns the predicted execution time in seconds. A request
// cached at or beyond its own length estimates 0.
func (p *Proxy) Estimate(nInput, nCached int) float64 {
	miss := nInput - nCached
	if miss < 0 {
		miss = 0
	}
	return p.SecondsPerMissToken * float64(miss)
}

// CalibrateProxy derives the proxy's per-miss-token cost from a single
// measurement at maxLen cold tokens.
func CalibrateProxy(measure TimeFunc, maxLen int) (*Proxy, error) {
	if maxLen <= 0 {
		return nil, fmt.Errorf("jct: maxLen must be positive, got %d", maxLen)
	}
	y, err := measure(maxLen, 0)
	if err != nil {
		return nil, fmt.Errorf("jct: calibrating proxy at %d: %w", maxLen, err)
	}
	return &Proxy{SecondsPerMissToken: y / float64(maxLen)}, nil
}

// ProxyCorrelation computes the Pearson correlation between measured JCT
// and the cache-miss-token count over the profiling grid — the paper's
// 0.987 validation (§6.3).
func ProxyCorrelation(measure TimeFunc, maxLen, granularity int) (float64, error) {
	var miss, ys []float64
	for n := granularity; n <= maxLen; n += granularity {
		for c := 0; c <= n; c += granularity {
			y, err := measure(n, c)
			if err != nil {
				return 0, err
			}
			miss = append(miss, float64(n-c))
			ys = append(ys, y)
		}
	}
	return metrics.Pearson(miss, ys)
}
