// Package fleet assembles a simulated serving fleet from a declarative
// Spec: the event kernel, the engine instances on their shard clocks, the
// router that routes requests to them, and the optional autoscaler,
// fault injector, flight recorder and time-series collector. The library
// facade, the HTTP server and every experiment build their fleets here,
// so each subsystem is wired in one place.
//
// A Fleet keeps counts, not records: callers that want the completion
// records collect them through Spec.OnComplete. It holds only live
// instances; the router folds a released instance's cache statistics
// into router.Router.CacheStats.
package fleet

import (
	"errors"
	"fmt"

	"repro/internal/autoscale"
	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/hw"
	"repro/internal/model"
	"repro/internal/router"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/timeseries"
	"repro/internal/trace"
)

// Engine names a serving engine implementation.
type Engine string

// The five engines the paper compares.
const (
	// PrefillOnly is the paper's engine (internal/core).
	PrefillOnly Engine = "prefillonly"
	// PagedAttention is the vLLM baseline (standard prefill, FCFS).
	PagedAttention Engine = "pagedattention"
	// ChunkedPrefill is the Sarathi-Serve baseline.
	ChunkedPrefill Engine = "chunked-prefill"
	// TensorParallel is TP=2 across a GPU pair.
	TensorParallel Engine = "tensor-parallel"
	// PipelineParallel is PP=2 across a GPU pair.
	PipelineParallel Engine = "pipeline-parallel"
)

// GPUs returns how many GPUs one instance of the engine occupies.
func (e Engine) GPUs() int {
	if e == TensorParallel || e == PipelineParallel {
		return 2
	}
	return 1
}

// Spec declares a fleet. Model and GPU are required; every other zero
// value takes the noted default.
type Spec struct {
	// Engine selects the engine implementation (default PrefillOnly).
	Engine Engine
	// Model is the served model and GPU the device type.
	Model *model.Config
	GPU   *hw.GPU
	// ProfileMaxLen is each instance's profile-run length (§3.1).
	ProfileMaxLen int
	// HostCacheBytes sizes the §9 host KV-offload tier (0 = off).
	HostCacheBytes int64
	// Core tunes PrefillOnly's scheduler; the baselines ignore it.
	Core core.Options
	// Instances is the fleet size. With Autoscale the pool starts at
	// Autoscale.MinInstances instead, and Instances is its default
	// ceiling.
	Instances int
	// Router configures the fleet's internal/router (its Tracer defaults
	// to the fleet's). Nil routes with a fresh router.FirstSeen, the
	// paper's §7.1 frontend: users go to instances round-robin in order of
	// first appearance and stay there. That assignment assumes a fixed
	// pool, so Autoscale and Chaos require a Router.
	Router *router.Config
	// Autoscale enables the elastic pool (requires Router). Its Model,
	// GPU and Tracer default to the fleet's.
	Autoscale *autoscale.Config
	// Chaos injects faults when it enables a fault kind (requires
	// Router). Fault-orphaned requests that recovery drops go to OnShed.
	// Only the serial engines can be faulted: TensorParallel and
	// PipelineParallel have no Kill and no speed factor, so a spec that
	// enables Chaos on them is rejected.
	Chaos chaos.Config
	// Shards selects the event kernel's shard count: <= 1 serial, >= 2
	// sharded with that many workers. Results are identical either way.
	Shards int
	// Tracer, when non-nil, records every tier's spans.
	Tracer *trace.Recorder
	// SampleSeconds, when positive and Tracer is set, samples the fleet
	// gauges into Tracer on sim ticks of that interval. A wall-clock
	// server leaves it 0 and calls SampleTrace on its own ticks.
	SampleSeconds float64
	// Timeseries, when non-nil, receives the fleet's request events and
	// samples its gauges at window close. Run attaches the collector's
	// boundary ticker to the coordinator clock; a fleet stepped only
	// with RunUntil leaves it detached, so windows close lazily.
	Timeseries *timeseries.Collector
	// OnComplete receives every completion record, in finish order.
	OnComplete func(engine.Record)
	// OnShed receives every fault-orphaned request that recovery drops.
	OnShed func(*sched.Request, *router.RejectError)
}

// Fleet is a running fleet on its event kernel.
type Fleet struct {
	spec    Spec
	kern    *sim.Sim // its own clock is the coordinator's
	sinkFor func(i int) func(engine.Record)
	arrive  sim.Func // SubmitAt's event callback, bound once
	built   int      // instances ever built: the next shard-rotation index
	gpus    int      // GPUs provisioned at construction
	// profiles memoizes the instances' profile runs: every instance of a
	// fleet profiles the same model on the same GPU, so the pass runs
	// once per fleet, not once per instance, scale-up or replacement.
	profiles engine.Profiles

	rt      *router.Router
	ctl     *autoscale.Controller
	inj     *chaos.Injector
	sampler *trace.Sampler

	completed int
	// rejectedByClass counts first-time admission sheds per class: the
	// router's tally also counts orphan re-admission sheds, and chaos
	// does not split those by class.
	rejectedByClass [sched.NumClasses]int
	err             error         // first routing failure that was not a shed
	bad             engine.Record // first malformed completion record (nil Req: none)
}

// New validates the spec, builds the initial instances (the first runs
// the profile they share, and each sizes its prefix-cache pool from it)
// and the router, and arms the fleet's tick loops.
func New(spec Spec) (*Fleet, error) {
	switch spec.Engine {
	case "":
		spec.Engine = PrefillOnly
	case PrefillOnly, PagedAttention, ChunkedPrefill, TensorParallel, PipelineParallel:
	default:
		return nil, fmt.Errorf("fleet: unknown engine %q", spec.Engine)
	}
	if spec.Model == nil || spec.GPU == nil {
		return nil, fmt.Errorf("fleet: Model and GPU are required")
	}
	if spec.Router == nil && (spec.Autoscale != nil || spec.Chaos.Enabled()) {
		return nil, fmt.Errorf("fleet: Autoscale and Chaos require a Router")
	}
	if spec.Chaos.Enabled() && (spec.Engine == TensorParallel || spec.Engine == PipelineParallel) {
		return nil, fmt.Errorf("fleet: Chaos cannot fault %s instances (no kill or straggler support)", spec.Engine)
	}
	initial := spec.Instances
	var acfg autoscale.Config
	if spec.Autoscale != nil {
		// A copy: defaults must not write back into the caller's config.
		acfg = *spec.Autoscale
		if acfg.MinInstances <= 0 {
			acfg.MinInstances = 1
		}
		if acfg.MaxInstances <= 0 {
			acfg.MaxInstances = spec.Instances
		}
		if acfg.Model == nil {
			acfg.Model = spec.Model
		}
		if acfg.GPU == nil {
			acfg.GPU = spec.GPU
		}
		if acfg.Tracer == nil {
			acfg.Tracer = spec.Tracer
		}
		initial = acfg.MinInstances
	}
	if initial <= 0 {
		return nil, fmt.Errorf("fleet: need at least one instance, got %d", initial)
	}

	f := &Fleet{spec: spec, kern: &sim.Sim{}, profiles: engine.Profiles{}}
	if spec.Shards > 1 {
		f.kern = sim.NewSharded(spec.Shards, engine.MinEventSeconds(spec.Model, spec.GPU))
	}
	f.arrive = f.arriveEvent
	// Completions flow through the kernel's merged sinks, so the sharded
	// kernel applies them in the serial kernel's global finish order.
	f.sinkFor = engine.CompletionSinks(f.kern, f.complete)
	engines := make([]engine.Engine, initial)
	for i := range engines {
		e, err := f.build()
		if err != nil {
			return nil, err
		}
		engines[i] = e
		f.gpus += e.GPUs()
	}
	// A fresh policy per fleet: FirstSeen is stateful, and parallel sweep
	// cells must share nothing.
	rcfg := router.Config{Policy: &router.FirstSeen{}}
	if spec.Router != nil {
		rcfg = *spec.Router
	}
	if rcfg.Tracer == nil {
		rcfg.Tracer = spec.Tracer
	}
	rt, err := router.New(rcfg, engines...)
	if err != nil {
		return nil, err
	}
	f.rt = rt
	if spec.Autoscale != nil {
		if f.ctl, err = autoscale.New(acfg, f.kern, rt, f.build); err != nil {
			return nil, err
		}
	}
	f.inj = chaos.New(spec.Chaos, f.kern, rt, chaos.Options{
		Controller: f.ctl,
		Tracer:     spec.Tracer,
		Timeseries: spec.Timeseries,
		OnShed:     f.shed,
	})
	spec.Timeseries.SetSample(f.Gauges)
	if spec.Tracer != nil && spec.SampleSeconds > 0 {
		f.sampler = trace.NewSampler(f.kern, spec.SampleSeconds, f.SampleTrace)
	}
	f.startLoops()
	return f, nil
}

// build constructs one engine instance on the next shard clock
// (round-robin), or on the kernel itself when it has no shards. It is
// also the autoscaler's factory, so mid-run additions continue the
// rotation deterministically.
func (f *Fleet) build() (engine.Engine, error) {
	i := f.built
	f.built++
	var clock sim.Clock = f.kern
	if n := f.kern.Shards(); n > 0 {
		clock = f.kern.Shard(i % n)
	}
	cfg := engine.Config{
		Model:          f.spec.Model,
		GPU:            f.spec.GPU,
		Sim:            clock,
		ProfileMaxLen:  f.spec.ProfileMaxLen,
		HostCacheBytes: f.spec.HostCacheBytes,
		Tracer:         f.spec.Tracer,
		OnComplete:     f.sinkFor(i),
		Profiles:       f.profiles,
	}
	switch f.spec.Engine {
	case PagedAttention:
		return engine.NewPagedAttention(cfg)
	case ChunkedPrefill:
		return engine.NewChunkedPrefill(cfg)
	case TensorParallel:
		return engine.NewTensorParallel(cfg)
	case PipelineParallel:
		return engine.NewPipelineParallel(cfg)
	default:
		return core.New(cfg, f.spec.Core)
	}
}

// startLoops arms every coordinator tick loop that is not ticking: the
// gauge sampler, the autoscaler and the fault streams. New arms them, and
// every Submit re-arms the ones that parked when an earlier run drained;
// each Start is idempotent, and a fault stream the chaos horizon stopped
// stays stopped.
func (f *Fleet) startLoops() {
	f.sampler.Start()
	if f.ctl != nil {
		f.ctl.Start()
	}
	f.inj.Start()
}

// Submit routes one request at the current simulated time. An admission
// shed is counted and returned as a *router.RejectError. Any other
// routing failure is a bug: it is returned, and Check reports it.
func (f *Fleet) Submit(r *sched.Request) error {
	now := f.kern.Now()
	ts := f.spec.Timeseries
	ts.Arrival(now, r.Class)
	ts.Start()
	err := f.rt.Submit(r)
	// After routing: a fault stream without a horizon only arms while
	// events are pending, and the request's own events now are.
	f.startLoops()
	if err == nil {
		return nil
	}
	var rej *router.RejectError
	if !errors.As(err, &rej) {
		if f.err == nil {
			f.err = fmt.Errorf("fleet: routing request %d: %w", r.ID, err)
		}
		return err
	}
	f.rejectedByClass[rej.Class]++ // in range: the router indexed its own tally by it
	ts.Reject(now, rej.Class, rej.Reason)
	return err
}

// SubmitAt schedules a request's arrival at absolute simulated time t.
// Arrivals land on the coordinator clock, because routing is cross-shard
// work. Arrivals submitted in time order cost O(1) each: they queue in the
// kernel's time-ordered ring (sim.Sim.AtFuncInOrder), not in its event
// heap. Sheds are counted; Check reports routing bugs.
func (f *Fleet) SubmitAt(t float64, r *sched.Request) {
	f.kern.AtFuncInOrder(t, f.arrive, r)
}

// arriveEvent submits a scheduled arrival. Its error needs no handling
// here: Submit has already counted a shed or recorded a bug for Check.
func (f *Fleet) arriveEvent(arg any) { _ = f.Submit(arg.(*sched.Request)) }

// complete is the fleet's completion sink.
func (f *Fleet) complete(r engine.Record) {
	f.rt.Completed(r)
	f.completed++
	// Three comparisons: a request starts after it arrives, finishes after
	// it starts, and hits at most its own input in the cache.
	if f.bad.Req == nil && (!(r.Arrival <= r.Start && r.Start <= r.Finish) || uint(r.CachedTokens) > uint(r.Req.Len())) {
		f.bad = r
	}
	// The record's own finish time: on the sharded kernel this sink runs
	// at window barriers, after the coordinator clock has moved on.
	f.spec.Timeseries.Complete(r.Finish, r.Req.Class, r.Latency())
	if f.spec.OnComplete != nil {
		f.spec.OnComplete(r)
	}
}

// shed is the fault injector's hook for orphans that recovery drops.
func (f *Fleet) shed(r *sched.Request, rej *router.RejectError) {
	f.spec.Timeseries.Reject(f.kern.Now(), rej.Class, rej.Reason)
	if f.spec.OnShed != nil {
		f.spec.OnShed(r, rej)
	}
}

// Run attaches the time-series collector's boundary ticker, drains the
// kernel, and returns the final simulated time.
func (f *Fleet) Run() float64 {
	f.spec.Timeseries.Attach(f.kern)
	return f.kern.Run()
}

// RunUntil executes every event at or before the deadline and advances
// the clock to it: a wall-clock server's stepping primitive. Stepping a
// fleet to the end of its events reproduces Run's records in order.
func (f *Fleet) RunUntil(deadline float64) { f.kern.RunUntil(deadline) }

// Check verifies a drained run's accounting: no routing bug, no
// completion record that starts before its arrival, finishes before its
// start or caches more tokens than its input, no failed autoscale
// factory, every one of the offered requests completed, shed at
// admission, or dropped as a fault orphan, a router left with no load
// or pending work, and no live instance's cache holding a pin or a
// reservation.
func (f *Fleet) Check(offered int) error {
	if f.err != nil {
		return f.err
	}
	if b := f.bad; b.Req != nil {
		return fmt.Errorf("fleet: request %d: arrival %g, start %g, finish %g, %d of %d tokens cached",
			b.Req.ID, b.Arrival, b.Start, b.Finish, b.CachedTokens, b.Req.Len())
	}
	if f.ctl != nil {
		if err := f.ctl.Err(); err != nil {
			return err
		}
	}
	if rejected, orphanShed := f.Rejected(), f.OrphanShed(); f.completed+rejected+orphanShed != offered {
		return fmt.Errorf("fleet: %d completed + %d rejected + %d orphan-shed of %d requests",
			f.completed, rejected, orphanShed, offered)
	}
	if err := f.rt.CheckIdle(); err != nil {
		return err
	}
	for i, e := range f.Engines() {
		if c := e.Cache(); c != nil {
			if err := c.CheckIdle(); err != nil {
				return fmt.Errorf("fleet: instance %d: %w", i, err)
			}
		}
	}
	return nil
}

// pendingInstances is the autoscaler's cold-starting additions.
func (f *Fleet) pendingInstances() int {
	if f.ctl == nil {
		return 0
	}
	return f.ctl.Size() - f.rt.Routable()
}

// Gauges samples the fleet for a time-series window: queue depth and
// backlog as the router prices them, pool size and pending cold starts,
// GPU-seconds and the cumulative cache hit ratio.
func (f *Fleet) Gauges(now float64) timeseries.Gauges {
	var g timeseries.Gauges
	for _, info := range f.rt.InstanceInfos() {
		g.QueuedRequests += info.Load.QueuedRequests
		g.BacklogSeconds += info.Load.BacklogSeconds
	}
	g.PoolSize = f.rt.Routable()
	g.PendingInstances = f.pendingInstances()
	g.GPUSeconds = f.GPUSeconds(now)
	g.CacheHitRatio = f.CacheHitRate()
	return g
}

// SampleTrace emits the fleet gauges into the flight recorder: each live
// instance's load, the pool size with pending cold starts, and the blocks
// resident in each live instance's cache, instances keyed by router ID.
// It is the trace's only source of pool and cache gauges.
func (f *Fleet) SampleTrace(now float64) {
	rec := f.spec.Tracer
	infos := f.rt.InstanceInfos()
	for _, info := range infos {
		rec.LoadGauge(now, info.ID, info.Load.QueuedRequests, info.Load.BacklogSeconds)
	}
	rec.PoolGauge(now, f.rt.Routable(), f.pendingInstances())
	for i, e := range f.rt.Instances() {
		if c := e.Cache(); c != nil {
			rec.CacheGauge(now, infos[i].ID, c.Len())
		}
	}
}

// CacheHitRate is hit tokens over looked-up tokens across every instance
// the fleet has run, released ones included.
func (f *Fleet) CacheHitRate() float64 { return f.rt.CacheStats().HitRate() }

// GPUSeconds is the fleet's provisioning cost up to now: the autoscaler's
// accrued integral, or the GPUs provisioned at construction × time for a
// fixed fleet.
func (f *Fleet) GPUSeconds(now float64) float64 {
	if f.ctl != nil {
		return f.ctl.GPUSeconds(now)
	}
	return now * float64(f.gpus)
}

// Clock returns the event kernel. Its own clock is the coordinator's:
// arrivals, routing, autoscale ticks and samplers run there.
func (f *Fleet) Clock() *sim.Sim { return f.kern }

// Engines returns the live instances in slot order.
func (f *Fleet) Engines() []engine.Engine { return f.rt.Instances() }

// Router returns the routing frontend, never nil: on a §7.1 fleet its
// policy is router.FirstSeen.
func (f *Fleet) Router() *router.Router { return f.rt }

// Autoscaler returns the pool controller (nil without Autoscale).
func (f *Fleet) Autoscaler() *autoscale.Controller { return f.ctl }

// Chaos returns the fault injector (nil unless Chaos enables a kind).
func (f *Fleet) Chaos() *chaos.Injector { return f.inj }

// Tracer returns the flight recorder (nil unless tracing).
func (f *Fleet) Tracer() *trace.Recorder { return f.spec.Tracer }

// Timeseries returns the collector (nil unless set).
func (f *Fleet) Timeseries() *timeseries.Collector { return f.spec.Timeseries }

// Completed returns the requests completed so far.
func (f *Fleet) Completed() int { return f.completed }

// Rejected returns the requests shed at admission so far.
func (f *Fleet) Rejected() int {
	n := 0
	for _, c := range f.rejectedByClass {
		n += c
	}
	return n
}

// RejectedClass returns the admission sheds of one SLO class so far.
func (f *Fleet) RejectedClass(c sched.Class) int {
	if int(c) >= len(f.rejectedByClass) {
		return 0
	}
	return f.rejectedByClass[c]
}

// OrphanShed returns the fault-orphaned requests dropped so far: the
// fault injector's count, since it sheds them.
func (f *Fleet) OrphanShed() int { return int(f.inj.Stats().Shed) }
