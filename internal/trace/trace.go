// Package trace is the simulation's observability layer: a sim-time-aware
// flight recorder that captures per-request lifecycle spans (submit →
// admit/reject → route → queue → execute, with pipeline pass stages) and
// periodic fleet gauges (per-instance queue depth and backlog, cache
// residency, pool size and cold-start windows).
//
// Storage is a bounded ring on internal/ringbuf: when the ring is full the
// oldest span is dropped, so a long run keeps the most recent window — a
// flight recorder, not a log. Cumulative per-kind counters stay exact
// across drops, so the metrics surface never lies even when the ring has
// wrapped.
//
// Everything is nil-safe: a nil *Recorder (and the nil *Instance handles
// it hands out) turns every emission into a branch-and-return, so the
// tracing-disabled hot path keeps the sim kernel's zero-alloc discipline
// (pinned by TestDisabledTracingZeroAlloc). The enabled path emits
// value-typed spans into the preallocated ring — no per-span allocation
// once the recorder is warm — and the gauge sampler ticks as a kernel
// observer (sim.Observer), which schedules without allocating.
//
// Export is Chrome trace-event JSON (see export.go): engine instances
// render as threads and lifecycle spans as complete ("X") events, loadable
// in Perfetto or chrome://tracing.
package trace

import (
	"sync"

	"repro/internal/ringbuf"
	"repro/internal/sched"
	"repro/internal/sim"
)

// Kind discriminates span records. Each kind documents how it uses the
// Span's generic fields (Name, A, B).
type Kind uint8

const (
	// KindSubmit is an instant: a request reached the router.
	// Name=policy.
	KindSubmit Kind = iota
	// KindRoute is an instant: the admission decision admitted the
	// request and the policy chose an instance. Name=policy,
	// Inst=router instance id, A=prefix-cache hit tokens at decision
	// time, B=estimated service seconds.
	KindRoute
	// KindReject is an instant: admission control shed the request.
	// Name=reason, Inst=router instance id, A=backlog seconds at the
	// chosen instance, B=the budget it exceeded.
	KindReject
	// KindQueue is a span: arrival → engine dispatch (time spent queued
	// behind other requests). Inst=trace instance id.
	KindQueue
	// KindExec is a span: engine dispatch → completion. Its end is the
	// request's completion instant, so queue+exec fully attribute the
	// request's JCT. Inst=trace instance id, A=prefix-cache hit tokens,
	// B=the scheduler's estimated JCT seconds (0 when the scheduler does
	// not estimate).
	KindExec
	// KindStage is a span: one pipeline-parallel pass stage (or the
	// inter-stage handoff wait). Name=stage label, Inst=trace instance
	// id.
	KindStage
	// KindColdStart is a span: an autoscale scale-up decision → the
	// instance becoming routable. A=pool size after the decision.
	// Name distinguishes "coldstart" (fresh instance) from "revive"
	// (a draining instance undrained, Dur=0).
	KindColdStart
	// KindLoadGauge is a sampled gauge: Inst=router instance id,
	// A=queued requests, B=backlog seconds.
	KindLoadGauge
	// KindCacheGauge is a sampled gauge: Inst=router instance id,
	// A=resident KV blocks.
	KindCacheGauge
	// KindPoolGauge is a sampled gauge: A=routable pool size,
	// B=pending cold starts.
	KindPoolGauge
	// KindFault is an instant: the chaos injector hit an instance.
	// Name=fault label ("crash", "straggler", "straggler-end",
	// "preempt-notice", "preempt-kill"), Inst=router instance id,
	// A=orphaned requests (kill faults), B=routable pool size after the
	// fault.
	KindFault

	numKinds
)

// Kinds lists every span kind, in declaration order (for metric exports
// that iterate the per-kind counters).
func Kinds() []Kind {
	out := make([]Kind, numKinds)
	for i := range out {
		out[i] = Kind(i)
	}
	return out
}

// String returns the kind's stable label (used by export and metrics).
func (k Kind) String() string {
	switch k {
	case KindSubmit:
		return "submit"
	case KindRoute:
		return "route"
	case KindReject:
		return "reject"
	case KindQueue:
		return "queue"
	case KindExec:
		return "exec"
	case KindStage:
		return "stage"
	case KindColdStart:
		return "coldstart"
	case KindLoadGauge:
		return "load-gauge"
	case KindCacheGauge:
		return "cache-gauge"
	case KindPoolGauge:
		return "pool-gauge"
	case KindFault:
		return "fault"
	}
	return "unknown"
}

// Span is one flight-recorder record, stored by value in the ring.
// Start/Dur are sim seconds (Dur 0 for instants and gauges). Name must be
// a constant or long-lived string (policy names, reject reasons, stage
// labels) so emission never builds a string. A and B are kind-specific
// numeric attributes documented on each Kind.
type Span struct {
	Kind  Kind
	Class sched.Class
	Inst  int32
	ReqID int64
	Start float64
	Dur   float64
	Name  string
	A, B  float64
}

// End returns the span's end time.
func (s Span) End() float64 { return s.Start + s.Dur }

// DefaultMaxSpans is the flight-recorder ring capacity when New is given
// a non-positive limit: recent-window depth, not run length.
const DefaultMaxSpans = 1 << 15

// Recorder is the sim-time flight recorder. All methods are safe on a nil
// receiver (no-ops) and safe for concurrent use: the HTTP frontend emits
// from request goroutines while the backend loop emits under its own lock.
// The nil-receiver contract is enforced statically by prefillvet's
// nilguard analyzer.
//
//prefill:niltolerant
type Recorder struct {
	mu      sync.Mutex
	ring    ringbuf.Ring[Span]
	max     int
	emitted [numKinds]uint64
	dropped uint64
	insts   []*Instance
}

// New builds a Recorder whose ring keeps at most maxSpans records
// (DefaultMaxSpans when maxSpans <= 0). The ring is preallocated so
// steady-state emission never resizes.
func New(maxSpans int) *Recorder {
	if maxSpans <= 0 {
		maxSpans = DefaultMaxSpans
	}
	r := &Recorder{max: maxSpans}
	r.ring.Reserve(maxSpans)
	return r
}

// Emit appends one span, dropping the oldest record when the ring is
// full. The per-kind emitted counters count every span ever emitted,
// drops included, so cumulative metrics stay exact after the ring wraps.
func (r *Recorder) Emit(s Span) {
	if r == nil || s.Kind >= numKinds {
		return
	}
	r.mu.Lock()
	r.emitted[s.Kind]++
	if r.ring.Len() >= r.max {
		r.ring.PopFront()
		r.dropped++
	}
	r.ring.PushBack(s)
	r.mu.Unlock()
}

// Len returns the number of spans currently held in the ring.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.ring.Len()
}

// Dropped returns how many spans the ring has evicted to make room.
func (r *Recorder) Dropped() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.dropped
}

// Emitted returns the cumulative count of spans of one kind (exact even
// after ring overflow).
func (r *Recorder) Emitted(k Kind) uint64 {
	if r == nil || k >= numKinds {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.emitted[k]
}

// TotalEmitted returns the cumulative span count across all kinds.
func (r *Recorder) TotalEmitted() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	var sum uint64
	for _, n := range r.emitted {
		sum += n
	}
	return sum
}

// Spans returns a copy of the ring's live window, oldest first.
func (r *Recorder) Spans() []Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Span, r.ring.Len())
	for i := range out {
		out[i] = r.ring.At(i)
	}
	return out
}

// --- router-level emissions (timestamps are the request's arrival: the
// router has no clock of its own, and submission happens at arrival time
// on both the simulated and the served path) ---

// Submit records a request reaching the router.
func (r *Recorder) Submit(now float64, policy string, reqID int64, class sched.Class) {
	r.Emit(Span{Kind: KindSubmit, Class: class, Inst: -1, ReqID: reqID, Start: now, Name: policy})
}

// Route records an admitted request's placement decision.
func (r *Recorder) Route(now float64, policy string, reqID int64, class sched.Class, instance int, hitTokens int, estSeconds float64) {
	r.Emit(Span{Kind: KindRoute, Class: class, Inst: int32(instance), ReqID: reqID,
		Start: now, Name: policy, A: float64(hitTokens), B: estSeconds})
}

// Reject records an admission-control shed and the budget it tripped.
func (r *Recorder) Reject(now float64, reason string, reqID int64, class sched.Class, instance int, backlog, bound float64) {
	r.Emit(Span{Kind: KindReject, Class: class, Inst: int32(instance), ReqID: reqID,
		Start: now, Name: reason, A: backlog, B: bound})
}

// --- autoscale emissions ---

// ColdStart records a scale-up window: decision at now, routable at
// now+dur. Name is "coldstart" for a fresh instance or "revive" (dur 0)
// for an undrained one.
func (r *Recorder) ColdStart(now, dur float64, name string, poolSize int) {
	r.Emit(Span{Kind: KindColdStart, Inst: -1, Start: now, Dur: dur, Name: name, A: float64(poolSize)})
}

// PoolGauge records the routable pool size and pending cold starts.
func (r *Recorder) PoolGauge(now float64, size, pending int) {
	r.Emit(Span{Kind: KindPoolGauge, Inst: -1, Start: now, A: float64(size), B: float64(pending)})
}

// Fault records a chaos-injector fault instant. label must be one of the
// injector's constant fault labels; orphans counts requests orphaned by a
// kill fault (0 otherwise) and routable is the pool size after the fault.
func (r *Recorder) Fault(now float64, label string, instance int, orphans, routable int) {
	r.Emit(Span{Kind: KindFault, Inst: int32(instance), Start: now, Name: label,
		A: float64(orphans), B: float64(routable)})
}

// LoadGauge records one instance's queue depth and backlog seconds.
func (r *Recorder) LoadGauge(now float64, instance int, queued int, backlogSeconds float64) {
	r.Emit(Span{Kind: KindLoadGauge, Inst: int32(instance), Start: now,
		A: float64(queued), B: backlogSeconds})
}

// CacheGauge records the KV blocks resident in one instance's prefix
// cache.
func (r *Recorder) CacheGauge(now float64, instance int, blocks int) {
	r.Emit(Span{Kind: KindCacheGauge, Inst: int32(instance), Start: now, A: float64(blocks)})
}

// --- engine instances ---

// Instance is an engine's handle into the recorder: a stable trace
// "thread" id. All methods are nil-safe so disabled tracing costs one
// branch (enforced by nilguard).
//
//prefill:niltolerant
type Instance struct {
	rec  *Recorder
	id   int32
	name string
}

// NewInstance registers an engine under the recorder and returns its
// handle (nil on a nil recorder). Engines of the same kind share a Name,
// so the id disambiguates; export renders "name#id".
func (r *Recorder) NewInstance(name string) *Instance {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	inst := &Instance{rec: r, id: int32(len(r.insts)), name: name}
	r.insts = append(r.insts, inst)
	return inst
}

// Queue records the request's wait span: arrival → engine dispatch.
func (i *Instance) Queue(reqID int64, class sched.Class, arrival, start float64) {
	if i == nil {
		return
	}
	i.rec.Emit(Span{Kind: KindQueue, Class: class, Inst: i.id, ReqID: reqID,
		Start: arrival, Dur: start - arrival})
}

// Exec records the request's service span: dispatch → completion. Its end
// is the completion instant; queue+exec sum to the request's JCT.
func (i *Instance) Exec(reqID int64, class sched.Class, start, finish float64, cachedTokens int, estSeconds float64) {
	if i == nil {
		return
	}
	i.rec.Emit(Span{Kind: KindExec, Class: class, Inst: i.id, ReqID: reqID,
		Start: start, Dur: finish - start, A: float64(cachedTokens), B: estSeconds})
}

// Stage records one pipeline pass stage (or handoff wait) within an exec
// span. name must be a constant label.
func (i *Instance) Stage(name string, reqID int64, class sched.Class, start, end float64) {
	if i == nil {
		return
	}
	i.rec.Emit(Span{Kind: KindStage, Class: class, Inst: i.id, ReqID: reqID,
		Start: start, Dur: end - start, Name: name})
}

// InstanceMeta is one registered instance's identity.
type InstanceMeta struct {
	ID   int32
	Name string
}

// Instances returns a snapshot of every registered instance.
func (r *Recorder) Instances() []InstanceMeta {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]InstanceMeta, len(r.insts))
	for i, inst := range r.insts {
		out[i] = InstanceMeta{ID: inst.id, Name: inst.name}
	}
	return out
}

// --- gauge sampler ---

// Sampler drives periodic gauge emission on the kernel's coordinator
// clock. It ticks as a sim.Observer, so no other loop sees its pending
// tick, and it reschedules only while other events are pending, so a
// batch run drains instead of ticking forever. Start re-arms it
// (idempotently) when new work is submitted. A nil Sampler no-ops
// (enforced by nilguard).
//
//prefill:niltolerant
type Sampler struct {
	s        *sim.Sim
	tick     *sim.Observer
	interval float64
	sample   func(now float64)
	running  bool
}

// NewSampler builds a sampler calling sample(now) every interval sim
// seconds. The callback reads fleet state (router loads, caches, pool)
// and emits gauges on a Recorder.
func NewSampler(s *sim.Sim, interval float64, sample func(now float64)) *Sampler {
	if interval <= 0 {
		panic("trace: sampler interval must be positive")
	}
	sp := &Sampler{s: s, interval: interval, sample: sample}
	sp.tick = s.NewObserver(samplerTick, sp)
	return sp
}

// Start arms the sampler if it is not already ticking.
func (sp *Sampler) Start() {
	if sp == nil || sp.running {
		return
	}
	sp.running = true
	sp.tick.At(sp.s.Now() + sp.interval)
}

// samplerTick is the observer callback: sample, then reschedule only
// while the sim still has other pending events.
func samplerTick(arg any) {
	sp := arg.(*Sampler)
	sp.sample(sp.s.Now())
	if sp.s.Pending() > 0 {
		sp.tick.At(sp.s.Now() + sp.interval)
		return
	}
	sp.running = false
}
