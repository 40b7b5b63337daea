// Package core implements PrefillOnly, the paper's inference engine for
// prefill-only workloads. It composes the repository's substrates into the
// system of Figure 2:
//
//   - hybrid prefilling (internal/graph) keeps only one layer's KV cache
//     and chunk-sized linear intermediates during inference, maximizing the
//     maximum input length without parallelizing or chunking attention. It
//     always runs in graph.DefaultChunkSize (512-token) chunks with both
//     §4.3 optimizations, output preallocation and in-place reuse;
//   - suffix KV cache discarding (internal/kvcache) preserves as much
//     prefix KV as fits in the post-profile-run memory and drops the rest;
//   - SRJF scheduling with continuous JCT calibration (internal/sched +
//     internal/jct) re-estimates every waiting request's completion time
//     against the live prefix cache before each scheduling decision, with a
//     λ-weighted queueing-time offset for starvation avoidance. The
//     estimate is the cache-miss-token proxy (jct.Proxy), which §6.3
//     finds correlates with true JCT at Pearson 0.987.
package core

import (
	"fmt"

	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/jct"
	"repro/internal/sched"
)

// DefaultLambda is the paper's default fairness parameter (§7.1).
const DefaultLambda = 500

// Options tunes PrefillOnly's scheduler beyond the shared engine config.
// The rest of the engine is fixed: hybrid prefilling in
// graph.DefaultChunkSize (512-token) chunks with output preallocation and
// in-place reuse, jct.Proxy as the JCT estimator, and continuous
// calibration.
type Options struct {
	// Lambda is the fairness parameter of Algorithm 1, in milliseconds
	// of JCT credit per second of queueing. Defaults to DefaultLambda;
	// set Lambda < 0 for a literal zero.
	Lambda float64
	// ClassWeights deprioritizes SLO classes in the calibrated scheduler:
	// class c's JCT is multiplied by ClassWeights[c] inside the heap key,
	// so a batch weight > 1 makes batch work yield to interactive work
	// whenever their weighted costs cross. Missing classes weigh 1; nil
	// is the class-blind paper policy.
	ClassWeights map[sched.Class]float64
}

func (o Options) lambda() float64 {
	switch {
	case o.Lambda < 0:
		return 0
	case o.Lambda == 0:
		return DefaultLambda
	default:
		return o.Lambda
	}
}

// Engine is the PrefillOnly serving engine: a single-GPU serial engine
// with hybrid prefilling, suffix discarding and calibrated scheduling.
type Engine struct {
	*engine.Serial
	estimator *jct.Proxy
	lambda    float64
}

// New builds a PrefillOnly engine. It performs the §3.1 profile run (via
// engine.NewSerial) to size the prefix-cache pool and calibrates the JCT
// proxy against the engine's own cost model.
func New(cfg engine.Config, opts Options) (*Engine, error) {
	// Validate class weights up front: sched.SetClassWeights panics on bad
	// values (programming-error surface), but Options travels in from
	// public config (SimulationConfig/ServerConfig), where misconfiguration
	// must come back as an error like every other field's.
	for class, w := range opts.ClassWeights {
		if w <= 0 {
			return nil, fmt.Errorf("core: class weight for %s must be positive, got %g", class, w)
		}
	}
	gopts := graph.HybridOptions(graph.DefaultChunkSize)

	// The scheduler needs the estimator, the estimator needs the
	// executor, and the executor belongs to the Serial engine — so build
	// the engine with a placeholder scheduler, then wire the real one.
	e := &Engine{lambda: opts.lambda()}
	serial, err := engine.NewSerial(cfg, engine.SerialSpec{
		Name:       "prefillonly",
		Opts:       gopts,
		Scheduler:  nil, // replaced below
		ResidentKV: false,
	})
	if err != nil {
		return nil, err
	}
	e.Serial = serial

	measure := func(nInput, nCached int) (float64, error) {
		return serial.Executor().EstimateSeconds(
			graph.PassSpec{Total: nInput, Cached: nCached}, gopts)
	}
	if e.estimator, err = jct.CalibrateProxy(measure, cfg.ProfileMaxLen); err != nil {
		return nil, fmt.Errorf("core: calibrating proxy: %w", err)
	}

	// The calibrated JCT consults the live prefix cache through Peek, so
	// calibration sweeps do not disturb LRU order. The request's hash
	// chain is computed once and cached on it.
	jctNow := func(r *sched.Request) float64 {
		cached := serial.Cache().PeekH(engine.HashesOf(r, serial.Cache().BlockTokens()))
		if cached > r.Len() {
			cached = r.Len()
		}
		return e.estimator.Estimate(r.Len(), cached)
	}
	// Incremental Algorithm 1: index each waiting request under the
	// frontier of its cached prefix and rekey only those whose frontier a
	// cache membership change touches, instead of re-pricing the whole
	// queue every dispatch.
	cal := sched.NewCalibrated(jctNow, e.lambda)
	if len(opts.ClassWeights) > 0 {
		cal.SetClassWeights(opts.ClassWeights)
	}
	engine.AttachIncremental(cal, serial.Cache())
	if err := engine.ReplaceScheduler(serial, cal); err != nil {
		return nil, err
	}
	return e, nil
}

// Estimator returns the engine's calibrated JCT proxy.
func (e *Engine) Estimator() *jct.Proxy { return e.estimator }
