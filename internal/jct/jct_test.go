package jct

import (
	"errors"
	"testing"

	"repro/internal/graph"
	"repro/internal/hw"
	"repro/internal/model"
)

// modelTime builds a TimeFunc backed by the graph executor's hybrid-mode
// estimate, i.e. what PrefillOnly's profile run measures.
func modelTime(e *graph.Executor) TimeFunc {
	return func(nInput, nCached int) (float64, error) {
		return e.EstimateSeconds(graph.PassSpec{Total: nInput, Cached: nCached}, graph.HybridOptions(512))
	}
}

// A request can never have negative JCT: a cached count at or beyond the
// request's length estimates 0.
func TestEstimateClampedAtZero(t *testing.T) {
	p := &Proxy{SecondsPerMissToken: 1e-4}
	if got := p.Estimate(1000, 1000); got != 0 {
		t.Fatalf("fully-cached request estimates %v, want 0", got)
	}
	if got := p.Estimate(1000, 2000); got != 0 {
		t.Fatalf("over-cached request estimates %v, want 0", got)
	}
}

// The paper measures Pearson correlation 0.987 between JCT and cache-miss
// tokens on Qwen-32B/A100; our model should land in the same regime.
func TestProxyCorrelationHigh(t *testing.T) {
	e := graph.New(model.Qwen32BFP8(), hw.A100())
	r, err := ProxyCorrelation(modelTime(e), 40000, ProfileGranularity)
	if err != nil {
		t.Fatal(err)
	}
	if r < 0.95 || r > 1.0 {
		t.Fatalf("proxy correlation = %.4f, want ~0.987", r)
	}
}

func TestCalibrateProxy(t *testing.T) {
	e := graph.New(model.Llama31_8B(), hw.L4())
	p, err := CalibrateProxy(modelTime(e), 20000)
	if err != nil {
		t.Fatal(err)
	}
	if p.SecondsPerMissToken <= 0 {
		t.Fatal("non-positive per-token cost")
	}
	if p.Estimate(2000, 0) <= p.Estimate(1000, 0) {
		t.Fatal("estimate not increasing in miss tokens")
	}
}

// CalibrateProxy rejects a non-positive profile length and surfaces a
// failed measurement.
func TestProfileErrors(t *testing.T) {
	ok := func(n, c int) (float64, error) { return 1, nil }
	boom := errors.New("boom")
	bad := func(n, c int) (float64, error) { return 0, boom }
	if _, err := CalibrateProxy(bad, 1000); !errors.Is(err, boom) {
		t.Errorf("calibration error not propagated: %v", err)
	}
	if _, err := CalibrateProxy(ok, 0); err == nil {
		t.Error("zero maxLen accepted")
	}
}
