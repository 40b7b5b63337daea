// Package server is PrefillOnly's online serving frontend: an
// OpenAI-compatible HTTP API (§3.1) over a real-time bridge to the
// simulated engine. Requests are tokenized, scheduled by the engine's
// calibrated SRJF policy against the live prefix cache, and answered with
// a constrained single-token completion and its probability scores
// (§2.3's allowed-token mechanism).
package server

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"repro/internal/autoscale"
	"repro/internal/chaos"
	"repro/internal/engine"
	"repro/internal/fleet"
	"repro/internal/metrics"
	"repro/internal/router"
	"repro/internal/sched"
	"repro/internal/timeseries"
	"repro/internal/tokenizer"
	"repro/internal/trace"
)

// Result is the outcome of one served request.
type Result struct {
	// Token is the sampled output token (the argmax of Scores).
	Token string
	// Scores maps each allowed token to its probability; they sum to 1.
	Scores map[string]float64
	// SimLatency is the request's latency in simulated seconds
	// (queueing + execution on the modelled GPU).
	SimLatency float64
	// CachedTokens is the prefix-cache hit length.
	CachedTokens int
	// PromptTokens is the prompt's encoded length, BOS included.
	PromptTokens int
	// Err is set when the request died after admission: its instance was
	// killed by a fault and re-admission shed it (a *router.RejectError
	// with reason "orphan-retries" or an admission reason). Submit
	// returns it as the call's error.
	Err error
}

// Backend bridges wall-clock callers to the event-driven fleet. Simulated
// time advances at Speedup × wall time, so a request whose modelled
// latency is 2 s returns after 2/Speedup wall seconds.
type Backend struct {
	Tokenizer *tokenizer.Tokenizer
	// Speedup is the simulated-seconds-per-wall-second factor
	// (default 1000: modelled GPU latencies shrink to milliseconds).
	Speedup float64

	mu      sync.Mutex
	fleet   *fleet.Fleet
	started time.Time
	nextID  int64
	waiters map[int64]chan Result
	closed  bool
	wake    chan struct{}
	done    chan struct{}

	// latency accumulates per-class request latency histograms for the
	// /v1/metrics surface; observations happen in onComplete.
	latency [sched.NumClasses]*metrics.Histogram
	// loopRuns counts clock-loop iterations, so tests can check that an
	// idle server sleeps.
	loopRuns int
}

// gaugeSampleInterval is the wall time between flight-recorder gauge
// samples (the served path samples on the wall clock; batch runs sample on
// sim ticks instead).
const gaugeSampleInterval = 100 * time.Millisecond

// maxSleep bounds one clock-loop sleep, so a far-off or absent next event
// needs no special timer state.
const maxSleep = time.Hour

// ErrEmptyPrompt is returned for a prompt that encodes to no piece, such
// as one of only whitespace.
var ErrEmptyPrompt = errors.New("server: prompt holds no token")

// NewBackend builds a backend over the fleet spec declares. The backend
// owns the fleet's hooks and clocking, so spec.OnComplete, OnShed and
// SampleSeconds must be unset: the served path steps the kernel, at any
// shard count, with the wall clock and samples trace gauges on a wall
// interval. The fleet is always routed; a nil spec.Router takes the default
// policy with no admission bound, which makes a one-instance spec plain
// single-engine serving. An autoscaled pool ticks for as long as the
// server is up, and an unset TickSeconds defaults to one control decision
// per wall millisecond: the tick is a simulated-seconds interval, so at
// high speedups a sim-time default would flood the event loop with
// control ticks between completions. The time-series collector, if any,
// never gets a boundary ticker, so windows close lazily on request events
// and scrapes.
func NewBackend(spec fleet.Spec, speedup float64) (*Backend, error) {
	if spec.OnComplete != nil || spec.OnShed != nil || spec.SampleSeconds != 0 {
		return nil, fmt.Errorf("server: OnComplete, OnShed and SampleSeconds are owned by the backend")
	}
	if speedup <= 0 {
		speedup = 1000
	}
	b := &Backend{
		Tokenizer: tokenizer.New(),
		Speedup:   speedup,
		started:   time.Now(),
		waiters:   make(map[int64]chan Result),
		wake:      make(chan struct{}, 1),
		done:      make(chan struct{}),
	}
	for i := range b.latency {
		b.latency[i] = metrics.NewHistogram(metrics.DefLatencyBuckets)
	}
	spec.OnComplete = b.onComplete
	spec.OnShed = b.onOrphanShed
	if spec.Router == nil {
		spec.Router = &router.Config{}
	}
	if spec.Autoscale != nil {
		a := *spec.Autoscale
		a.KeepAlive = true
		if a.TickSeconds <= 0 {
			a.TickSeconds = max(1, speedup/1000)
		}
		spec.Autoscale = &a
	}
	f, err := fleet.New(spec)
	if err != nil {
		return nil, err
	}
	b.fleet = f
	go b.loop()
	return b, nil
}

// Engines exposes the live instances in slot order (read-only use).
func (b *Backend) Engines() []engine.Engine {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.fleet.Engines()
}

// Router exposes the routing frontend.
func (b *Backend) Router() *router.Router { return b.fleet.Router() }

// Autoscaler exposes the pool controller (nil unless autoscaled).
func (b *Backend) Autoscaler() *autoscale.Controller { return b.fleet.Autoscaler() }

// InstanceStats is one instance's identity and live load in a
// StatsSnapshot.
type InstanceStats struct {
	ID             int     `json:"id"`
	Draining       bool    `json:"draining"`
	GPUs           int     `json:"gpus"`
	QueuedRequests int     `json:"queued_requests"`
	QueuedTokens   int64   `json:"queued_tokens"`
	BacklogSeconds float64 `json:"backlog_seconds"`
	// ClassBacklogSeconds splits BacklogSeconds by SLO class label.
	ClassBacklogSeconds map[string]float64 `json:"class_backlog_seconds,omitempty"`
	RoutedRequests      int64              `json:"routed_requests"`
	RoutedTokens        int64              `json:"routed_tokens"`
}

// AutoscaleStats reports the pool controller's state in a StatsSnapshot.
type AutoscaleStats struct {
	PoolSize         int     `json:"pool_size"`
	ScaleUps         int     `json:"scale_ups"`
	ScaleDowns       int     `json:"scale_downs"`
	Revives          int     `json:"revives"`
	PeakInstances    int     `json:"peak_instances"`
	TroughInstances  int     `json:"trough_instances"`
	ColdStartSeconds float64 `json:"cold_start_seconds"`
	GPUSeconds       float64 `json:"gpu_seconds"`
}

// StatsSnapshot is the /v1/stats payload: the router's live per-instance
// loads, the admission tally, and the autoscaler's pool state.
type StatsSnapshot struct {
	SimSeconds float64         `json:"sim_seconds"`
	Instances  []InstanceStats `json:"instances"`
	Routable   int             `json:"routable"`
	// Admission maps policy name to its accept/reject counts.
	Admission map[string]AdmissionStats `json:"admission"`
	// AdmissionByClass stratifies Admission by SLO class label:
	// policy → class → counts.
	AdmissionByClass map[string]map[string]AdmissionStats `json:"admission_by_class,omitempty"`
	// RejectReasons stratifies rejects by which budget they tripped:
	// policy → class → reason ("backlog" | "class-budget") → count.
	RejectReasons map[string]map[string]map[string]int64 `json:"admission_reject_reasons,omitempty"`
	Autoscale     *AutoscaleStats                        `json:"autoscale,omitempty"`
	// Faults reports the chaos injector's activity (omitted unless the
	// fleet injects faults).
	Faults *FaultStats `json:"faults,omitempty"`
}

// FaultStats reports the chaos injector's cumulative activity in a
// StatsSnapshot.
type FaultStats struct {
	// ByKind counts fault events per kind label ("crash", "straggler",
	// "preempt-notice", "preempt-kill").
	ByKind map[string]uint64 `json:"by_kind"`
	// Orphaned requests split into Rerouted (re-admitted) + Shed.
	Orphaned uint64 `json:"orphaned"`
	Rerouted uint64 `json:"rerouted"`
	Shed     uint64 `json:"shed"`
	// Recoveries counts kill faults after which the routable pool
	// returned to its pre-fault size; Unrecovered the ones whose
	// tracking timed out.
	Recoveries          uint64  `json:"recoveries"`
	Unrecovered         uint64  `json:"unrecovered"`
	MeanRecoverySeconds float64 `json:"mean_recovery_seconds"`
	MaxRecoverySeconds  float64 `json:"max_recovery_seconds"`
}

// AdmissionStats is one policy's accept/reject tally in a StatsSnapshot.
type AdmissionStats struct {
	Accepted int64 `json:"accepted"`
	Rejected int64 `json:"rejected"`
}

// Stats gathers a consistent snapshot of the serving cluster's state.
func (b *Backend) Stats() StatsSnapshot {
	b.mu.Lock()
	defer b.mu.Unlock()
	rt := b.fleet.Router()
	now := b.stepLocked()
	snap := StatsSnapshot{
		SimSeconds: now,
		Routable:   rt.Routable(),
		Admission:  map[string]AdmissionStats{},
	}
	for _, info := range rt.InstanceInfos() {
		classBacklog := make(map[string]float64, sched.NumClasses)
		for _, class := range sched.Classes() {
			if s := info.Load.ClassBacklog(class); s > 0 {
				classBacklog[class.String()] = s
			}
		}
		snap.Instances = append(snap.Instances, InstanceStats{
			ID:                  info.ID,
			Draining:            info.Draining,
			GPUs:                info.GPUs,
			QueuedRequests:      info.Load.QueuedRequests,
			QueuedTokens:        info.Load.QueuedTokens,
			BacklogSeconds:      info.Load.BacklogSeconds,
			ClassBacklogSeconds: classBacklog,
			RoutedRequests:      info.Load.RoutedRequests,
			RoutedTokens:        info.Load.RoutedTokens,
		})
	}
	// One ClassSnapshot serves both views: summing it here keeps the
	// aggregate consistent with the per-class breakdown (two separate
	// snapshot calls could interleave with a concurrent submit).
	for pol, byClass := range rt.Admission().ClassSnapshot() {
		m := make(map[string]AdmissionStats, len(byClass))
		var agg AdmissionStats
		for class, c := range byClass {
			m[class] = AdmissionStats{Accepted: c.Accepted, Rejected: c.Rejected}
			agg.Accepted += c.Accepted
			agg.Rejected += c.Rejected
		}
		snap.Admission[pol] = agg
		if snap.AdmissionByClass == nil {
			snap.AdmissionByClass = make(map[string]map[string]AdmissionStats)
		}
		snap.AdmissionByClass[pol] = m
	}
	if reasons := rt.Admission().ReasonSnapshot(); len(reasons) > 0 {
		snap.RejectReasons = reasons
	}
	if ctl := b.fleet.Autoscaler(); ctl != nil {
		st := ctl.Stats()
		snap.Autoscale = &AutoscaleStats{
			PoolSize:         ctl.Size(),
			ScaleUps:         st.ScaleUps,
			ScaleDowns:       st.ScaleDowns,
			Revives:          st.Revives,
			PeakInstances:    st.PeakInstances,
			TroughInstances:  st.MinInstances,
			ColdStartSeconds: st.ColdStartSeconds,
			GPUSeconds:       ctl.GPUSeconds(now),
		}
	}
	if inj := b.fleet.Chaos(); inj.Enabled() {
		st := inj.Stats()
		byKind := make(map[string]uint64, 4)
		for _, label := range chaos.Labels() {
			byKind[label] = st.ByLabel(label)
		}
		snap.Faults = &FaultStats{
			ByKind:              byKind,
			Orphaned:            st.Orphaned,
			Rerouted:            st.Rerouted,
			Shed:                st.Shed,
			Recoveries:          st.Recoveries,
			Unrecovered:         st.Unrecovered,
			MeanRecoverySeconds: st.MeanRecoverySeconds(),
			MaxRecoverySeconds:  st.MaxRecoverySeconds,
		}
	}
	return snap
}

// simNow maps wall time to simulated seconds.
func (b *Backend) simNow() float64 {
	return time.Since(b.started).Seconds() * b.Speedup
}

// stepLocked runs the kernel up to the wall clock's simulated time and
// returns that time. The clock loop sleeps while no event is due, so every
// reader of the kernel clock steps it first; b.mu must be held.
func (b *Backend) stepLocked() float64 {
	b.fleet.RunUntil(b.simNow())
	return b.fleet.Clock().Now()
}

// sleepFor is how long the clock loop may sleep before the kernel's next
// event falls due on the wall clock; b.mu must be held.
func (b *Backend) sleepFor() time.Duration {
	next := b.fleet.Clock().NextTime()
	wait := next/b.Speedup - time.Since(b.started).Seconds()
	if wait >= maxSleep.Seconds() {
		return maxSleep
	}
	return time.Duration(math.Ceil(wait * 1e9))
}

// onComplete runs inside sim event handlers (loop holds the lock).
func (b *Backend) onComplete(rec engine.Record) {
	if c := int(rec.Req.Class); c < len(b.latency) {
		b.latency[c].Observe(rec.Latency())
	}
	ch, ok := b.waiters[rec.Req.ID]
	if !ok {
		return
	}
	delete(b.waiters, rec.Req.ID)
	scores := Score(rec.Req.Tokens, rec.Req.AllowedTokens)
	best, bestP := "", -1.0
	for tok, p := range scores {
		if p > bestP {
			best, bestP = tok, p
		}
	}
	ch <- Result{
		Token:        best,
		Scores:       scores,
		SimLatency:   rec.Latency(),
		CachedTokens: rec.CachedTokens,
		PromptTokens: len(rec.Req.Tokens),
	}
}

// onOrphanShed runs inside sim event handlers (loop holds the lock): a
// fault orphaned this request and re-admission shed it, so answer its
// waiter with the typed reject instead of leaving the caller blocked.
func (b *Backend) onOrphanShed(r *sched.Request, rej *router.RejectError) {
	ch, ok := b.waiters[r.ID]
	if !ok {
		return
	}
	delete(b.waiters, r.ID)
	ch <- Result{Err: fmt.Errorf("server: %w", rej)}
}

// loop advances simulated time in lockstep with the wall clock. After
// each step it sleeps until the kernel's next event is due, a submit wakes
// it, or, with a tracer, the next gauge sample is due; an idle server
// without a tracer sleeps until the next submit. An autoscaled pool still
// wakes once per control tick: the tick is an event of the model.
func (b *Backend) loop() {
	timer := time.NewTimer(maxSleep)
	defer timer.Stop()
	nextSample := b.started.Add(gaugeSampleInterval)
	for {
		b.mu.Lock()
		b.loopRuns++
		now := b.stepLocked()
		sleep := b.sleepFor()
		if b.fleet.Tracer() != nil {
			if wall := time.Now(); !wall.Before(nextSample) {
				b.fleet.SampleTrace(now)
				nextSample = wall.Add(gaugeSampleInterval)
			}
			sleep = min(sleep, time.Until(nextSample))
		}
		b.mu.Unlock()

		// go.mod predates Go 1.23's timers: stop and drain before Reset.
		if !timer.Stop() {
			select {
			case <-timer.C:
			default:
			}
		}
		timer.Reset(sleep)
		select {
		case <-b.done:
			return
		case <-timer.C:
		case <-b.wake:
		}
	}
}

// Chaos exposes the fault injector (nil unless the spec enables a fault
// kind).
func (b *Backend) Chaos() *chaos.Injector { return b.fleet.Chaos() }

// Timeseries renders the collector's series as of the current simulated
// time (ok is false without a collector). It takes the backend lock, so
// the snapshot's gauges are consistent with the rows.
func (b *Backend) Timeseries() (timeseries.Export, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	ts := b.fleet.Timeseries()
	if ts == nil {
		return timeseries.Export{}, false
	}
	// Close windows the clock has passed (the server has no boundary
	// ticker), then snapshot: scrapes see every elapsed window plus a
	// partial row for the open one.
	now := b.stepLocked()
	ts.Advance(now)
	return ts.Snapshot(now), true
}

// Trace exposes the flight recorder (nil unless the spec carries a
// Tracer).
func (b *Backend) Trace() *trace.Recorder { return b.fleet.Tracer() }

// Close stops the backend's clock loop. In-flight Submit calls are
// answered with an error result.
func (b *Backend) Close() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return
	}
	b.closed = true
	close(b.done)
}

// Submit serves one prompt with an allowed-token constraint, blocking
// until the engine completes it (in scaled wall time). The request is
// interactive-class; batch tenants go through SubmitClass.
func (b *Backend) Submit(prompt string, allowed []string, userID int) (Result, error) {
	return b.SubmitClass(prompt, allowed, userID, sched.ClassInteractive)
}

// SubmitClass is Submit with an explicit SLO class: the class selects the
// request's admission budget, scheduling weight and autoscale treatment.
func (b *Backend) SubmitClass(prompt string, allowed []string, userID int, class sched.Class) (Result, error) {
	if len(allowed) == 0 {
		allowed = []string{"Yes", "No"}
	}
	toks := b.Tokenizer.Encode(prompt)
	if len(toks) == 0 || len(toks) == 1 && b.Tokenizer.BOS != 0 {
		return Result{}, ErrEmptyPrompt
	}
	ch := make(chan Result, 1)

	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return Result{}, fmt.Errorf("server: backend closed")
	}
	b.nextID++
	id := b.nextID
	r := &sched.Request{
		ID:            id,
		UserID:        userID,
		Tokens:        toks,
		ArrivalTime:   b.stepLocked(),
		AllowedTokens: allowed,
		Class:         class,
	}
	b.waiters[id] = ch
	if err := b.fleet.Submit(r); err != nil {
		delete(b.waiters, id)
		b.mu.Unlock()
		return Result{}, fmt.Errorf("server: %w", err)
	}
	b.mu.Unlock()

	select {
	case b.wake <- struct{}{}:
	default:
	}
	select {
	case res := <-ch:
		if res.Err != nil {
			return Result{}, res.Err
		}
		return res, nil
	case <-b.done:
		return Result{}, fmt.Errorf("server: backend closed")
	}
}
