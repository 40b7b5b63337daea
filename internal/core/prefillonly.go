// Package core implements PrefillOnly, the paper's inference engine for
// prefill-only workloads. It composes the repository's substrates into the
// system of Figure 2:
//
//   - hybrid prefilling (internal/graph) keeps only one layer's KV cache
//     and chunk-sized linear intermediates during inference, maximizing the
//     maximum input length without parallelizing or chunking attention;
//   - suffix KV cache discarding (internal/kvcache) preserves as much
//     prefix KV as fits in the post-profile-run memory and drops the rest;
//   - SRJF scheduling with continuous JCT calibration (internal/sched +
//     internal/jct) re-estimates every waiting request's completion time
//     against the live prefix cache before each scheduling decision, with a
//     λ-weighted queueing-time offset for starvation avoidance.
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

// EstimatorKind selects how PrefillOnly estimates JCT.
type EstimatorKind int

const (
	// ProxyEstimator is the cache-miss-token proxy, the paper's default
	// (Pearson 0.987 against true JCT, §6.3).
	ProxyEstimator EstimatorKind = iota
	// LinearEstimator is the profiled linear-regression model over
	// (n_input, n_cached) pairs.
	LinearEstimator
)

// Options tunes PrefillOnly beyond the shared engine config.
type Options struct {
	// Lambda is the fairness parameter of Algorithm 1, in milliseconds
	// of JCT credit per second of queueing. Defaults to DefaultLambda;
	// set Lambda < 0 for a literal zero.
	Lambda float64
	// ChunkSize is the hybrid-prefilling chunk length (default 512).
	ChunkSize int
	// Estimator picks the JCT estimator (default ProxyEstimator).
	Estimator EstimatorKind
	// ClassWeights deprioritizes SLO classes in the calibrated scheduler:
	// class c's JCT is multiplied by ClassWeights[c] inside the heap key,
	// so a batch weight > 1 makes batch work yield to interactive work
	// whenever their weighted costs cross. Missing classes weigh 1; nil
	// is the class-blind paper policy. Requires calibration (the static
	// SRJF ablation ignores it).
	ClassWeights map[sched.Class]float64
	// DisableCalibration freezes each request's JCT at arrival (plain
	// SRJF) — used by the scheduling ablation.
	DisableCalibration bool
	// DisableOptimizations turns off output preallocation and in-place
	// reuse (Figure 10's "Chunking"-only configuration).
	DisableOptimizations bool
}

func (o Options) chunk() int {
	if o.ChunkSize <= 0 {
		return graph.DefaultChunkSize
	}
	return o.ChunkSize
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
	estimator jct.Estimator
	opts      Options
}

// New builds a PrefillOnly engine. It performs the §3.1 profile run (via
// engine.NewSerial) to size the prefix-cache pool and calibrates the JCT
// estimator against the engine's own cost model.
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
	gopts := graph.HybridOptions(opts.chunk())
	if opts.DisableOptimizations {
		gopts.OutputPrealloc = false
		gopts.InPlace = false
	}

	// The scheduler needs the estimator, the estimator needs the
	// executor, and the executor belongs to the Serial engine — so build
	// the engine with a placeholder scheduler, then wire the real one.
	e := &Engine{opts: opts}
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
	switch opts.Estimator {
	case ProxyEstimator:
		p, err := jct.CalibrateProxy(measure, cfg.ProfileMaxLen)
		if err != nil {
			return nil, fmt.Errorf("core: calibrating proxy: %w", err)
		}
		e.estimator = p
	case LinearEstimator:
		l, err := jct.Profile(measure, cfg.ProfileMaxLen, jct.ProfileGranularity)
		if err != nil {
			return nil, fmt.Errorf("core: profiling JCT: %w", err)
		}
		e.estimator = l
	default:
		return nil, fmt.Errorf("core: unknown estimator kind %d", opts.Estimator)
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
	var scheduler sched.Scheduler
	if opts.DisableCalibration {
		scheduler = sched.NewSRJF(jctNow)
	} else {
		// Incremental Algorithm 1: index each waiting request under the
		// frontier of its cached prefix and rekey only those whose
		// frontier a cache membership change touches, instead of
		// re-pricing the whole queue every dispatch.
		cal := sched.NewCalibrated(jctNow, opts.lambda())
		if len(opts.ClassWeights) > 0 {
			cal.SetClassWeights(opts.ClassWeights)
		}
		engine.AttachIncremental(cal, serial.Cache())
		scheduler = cal
	}
	if err := engine.ReplaceScheduler(serial, scheduler); err != nil {
		return nil, err
	}
	return e, nil
}

// Estimator returns the engine's JCT estimator.
func (e *Engine) Estimator() jct.Estimator { return e.estimator }

// Lambda returns the active fairness parameter.
func (e *Engine) Lambda() float64 {
	if e.opts.DisableCalibration {
		return 0
	}
	return e.opts.lambda()
}
