// Package engine implements the LLM serving engines the paper compares:
// the four baselines (PagedAttention, chunked prefill, tensor parallelism,
// pipeline parallelism) and the shared machinery (profile runs, prefix
// cache pools, execution accounting) that internal/core builds PrefillOnly
// on.
//
// Engines execute against the discrete-event simulator in internal/sim:
// Submit enqueues a request at the current simulated time, execution is
// priced by the graph cost model, and a Record is emitted at completion.
package engine

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/hw"
	"repro/internal/kvcache"
	"repro/internal/memory"
	"repro/internal/model"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Record is the completion report of one request.
type Record struct {
	Req *sched.Request
	// Arrival, Start and Finish are simulated timestamps in seconds.
	Arrival, Start, Finish float64
	// CachedTokens is the prefix-cache hit length at execution time.
	CachedTokens int
	// SpilledBytes is KV cache the engine had to stream over the host
	// link because the request did not fit in device memory (the
	// beyond-MIL fallback; see DESIGN.md §5).
	SpilledBytes int64
	// RestoredTokens is the prefix length loaded back from the host
	// offload tier (§9 extension) instead of recomputed.
	RestoredTokens int
	// Instance is the engine instance that served the request.
	Instance string
}

// Latency is the request's end-to-end latency.
func (r Record) Latency() float64 { return r.Finish - r.Arrival }

// QueueTime is the time spent waiting before execution started.
func (r Record) QueueTime() float64 { return r.Start - r.Arrival }

// ExecTime is the execution duration.
func (r Record) ExecTime() float64 { return r.Finish - r.Start }

// Infeasible reports whether the request exceeded the engine's maximum
// input length and needed the spill fallback.
func (r Record) Infeasible() bool { return r.SpilledBytes > 0 }

// Engine is an online serving engine bound to a simulator.
type Engine interface {
	// Name identifies the engine configuration.
	Name() string
	// Submit enqueues a request at the current simulated time.
	Submit(r *sched.Request)
	// GPUs returns how many GPUs the engine instance occupies.
	GPUs() int
	// Cache returns the engine's prefix cache (nil if disabled).
	Cache() *kvcache.Manager
}

// Config carries what every engine needs.
type Config struct {
	// Model is the (unsharded) model to serve.
	Model *model.Config
	// GPU is the device type; parallel engines use two of them.
	GPU *hw.GPU
	// Sim is the event kernel the engine schedules on.
	Sim sim.Clock
	// ProfileMaxLen is the user-provided maximum input length used by
	// the profile run to size the activation reserve (§3.1).
	ProfileMaxLen int
	// BlockTokens is the prefix-cache block size (default 16).
	BlockTokens int
	// HostCacheBytes enables the §9 CPU-offload extension when positive:
	// prefix KV evicted from GPU demotes to a host tier of this size,
	// and serial engines restore host-cached prefixes over the host link
	// when that is cheaper than recomputing them.
	HostCacheBytes int64
	// OnComplete receives the Record of every finished request.
	OnComplete func(Record)
	// Tracer, when non-nil, receives the request lifecycle spans (queue
	// wait, execution, pipeline stages) and cache-residency gauges of
	// every engine built from this Config. Each constructor registers its
	// own trace.Instance, so a routed fleet sharing one Config gets one
	// timeline per engine. A nil Tracer disables tracing at zero cost
	// (nil-handle branch per event; no allocation).
	Tracer *trace.Recorder
}

func (c *Config) validate() error {
	if c.Model == nil || c.GPU == nil || c.Sim == nil {
		return fmt.Errorf("engine: Model, GPU and Sim are required")
	}
	if c.ProfileMaxLen <= 0 {
		return fmt.Errorf("engine: ProfileMaxLen must be positive, got %d", c.ProfileMaxLen)
	}
	return nil
}

func (c *Config) blockTokens() int {
	if c.BlockTokens <= 0 {
		return 16
	}
	return c.BlockTokens
}

func (c *Config) emit(rec Record) {
	if c.OnComplete != nil {
		c.OnComplete(rec)
	}
}

// HashesOf returns (computing lazily) the request's prefix-cache hash
// chain for the given block size, memoized on the request. It is the
// single hash-chain entry point: engines, routers and schedulers all go
// through it so a request is hashed at most once per block size.
func HashesOf(r *sched.Request, blockTokens int) []uint64 {
	if r.BlockHashes == nil || r.HashBlockTokens != blockTokens {
		r.BlockHashes = kvcache.BlockHashes(r.Tokens, blockTokens)
		r.HashBlockTokens = blockTokens
	}
	return r.BlockHashes
}

// AttachIncremental switches a Calibrated scheduler into incremental mode
// against the cache its JCT function consults, which must depend only on
// the request's cached prefix there: each waiting request is indexed under
// the frontier of its (memoized) hash chain at the cache's block size —
// the last cached block, whose eviction shortens the hit, and the first
// uncached one, whose insertion lengthens it — and the cache's
// membership-change feed rekeys only the entries watching a changed
// block. Wiring both halves here makes it impossible to index requests
// without also subscribing to the events that keep their keys fresh.
// Call it before any request is enqueued.
func AttachIncremental(c *sched.Calibrated, m *kvcache.Manager) {
	bt := m.BlockTokens()
	c.SetWatch(func(r *sched.Request) (w sched.Watch) {
		chain := HashesOf(r, bt)
		a := m.PeekH(chain) / bt
		if a > 0 {
			w[0] = chain[a-1]
		}
		if a < len(chain) {
			w[1] = chain[a]
		}
		return w
	})
	m.Subscribe(func(ev kvcache.ChangeEvent) { c.OnCacheChange(ev.Inserted, ev.Evicted) })
}

// profile captures the outcome of an engine's §3.1-style profile run on
// one device's model share.
type profile struct {
	// effLen is the input length actually profiled. It equals the
	// requested ProfileMaxLen when that fits; otherwise it is clamped to
	// the longest length whose activation reserve leaves minPoolFrac of
	// usable memory as prefix-cache pool (vLLM refuses to start beyond
	// this point; we clamp and let longer requests take the spill
	// fallback instead, so the "×" Table-2 configurations still run).
	effLen int
	// actReserve is the activation reserve (peak working memory minus
	// retained KV) at effLen.
	actReserve int64
	// actPerToken linearizes the reserve for spill pricing of requests
	// longer than effLen.
	actPerToken float64
	// pool is the prefix-cache pool: usable − weights − actReserve.
	pool int64
}

// minPoolFrac is the minimum fraction of usable memory kept as KV pool
// when clamping the profile length.
const minPoolFrac = 0.02

// profileRun measures the activation reserve at a given length: the peak
// working memory of a pass, excluding retained KV (whose space comes out
// of the paged pool instead). This mirrors both vLLM's memory profiling
// and PrefillOnly's §3.1 profile run.
func profileRun(exec *graph.Executor, opts graph.Options, n int) (actReserve int64, err error) {
	res, err := exec.Run(graph.PassSpec{Total: n}, opts, memory.New(0), false)
	if err != nil {
		return 0, fmt.Errorf("engine: profile run at %d tokens: %w", n, err)
	}
	return res.PeakBytes - res.KVRetainedBytes, nil
}

// buildProfile runs the profile pass at maxLen, clamping to a shorter
// length when the activation reserve would squeeze the KV pool below
// minPoolFrac of usable memory.
func buildProfile(exec *graph.Executor, opts graph.Options, g *hw.GPU, weights int64, maxLen int) (profile, error) {
	minPool := int64(minPoolFrac * float64(g.UsableBytes()))
	budget := g.UsableBytes() - weights - minPool
	if budget <= 0 {
		return profile{}, fmt.Errorf("engine: %d B of weights do not fit in %s (%d B usable)",
			weights, g.Name, g.UsableBytes())
	}
	fits := func(n int) (int64, bool, error) {
		act, err := profileRun(exec, opts, n)
		if err != nil {
			return 0, false, err
		}
		return act, act <= budget, nil
	}
	act, ok, err := fits(maxLen)
	if err != nil {
		return profile{}, err
	}
	effLen := maxLen
	if !ok {
		// Binary search the largest profiling length that fits.
		lo, hi := 1, maxLen
		for hi-lo > 64 {
			mid := (lo + hi) / 2
			_, midOK, err := fits(mid)
			if err != nil {
				return profile{}, err
			}
			if midOK {
				lo = mid
			} else {
				hi = mid
			}
		}
		effLen = lo
		act, _, err = fits(effLen)
		if err != nil {
			return profile{}, err
		}
		if act > budget {
			return profile{}, fmt.Errorf("engine: no feasible profile length on %s", g.Name)
		}
	}
	p := profile{
		effLen:      effLen,
		actReserve:  act,
		actPerToken: float64(act) / float64(effLen),
		pool:        g.UsableBytes() - weights - act,
	}
	return p, nil
}

// actSpill prices activation overflow for a request longer than the
// profiled length: the excess working set spills over the host link.
func (p profile) actSpill(n int) int64 {
	if n <= p.effLen {
		return 0
	}
	return int64(float64(n-p.effLen) * p.actPerToken)
}
