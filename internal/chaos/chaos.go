// Package chaos is the deterministic fault injector: it schedules
// instance crashes, slow-node stragglers and spot preemptions as events
// on the sim clock, and drives the recovery machinery the rest of the
// repository provides — router.Fail re-admits orphaned requests through
// admission under a per-request retry budget, and the autoscaler
// cold-starts catalog-priced replacements for lost capacity.
//
// Determinism: every fault time comes from a seeded exponential-gap
// stream (sim.Poisson) and every victim from a seeded generator, both
// dedicated per fault kind, so a chaos-enabled run replays exactly for a
// given Config. Faults must be scheduled on the kernel's coordinator
// clock (the kernel itself, not a shard): crash and preemption events
// mutate engine and router state across instances, which is cross-shard
// work, so the sharded kernel executes them at barriers — a faulted run
// is byte-identical serial vs sharded.
//
// The disabled injector is a nil *Injector: New returns nil when no
// fault kind is enabled, and every method no-ops on a nil receiver
// (enforced by prefillvet's nilguard), so a failure-free run stays
// bit-identical to one without this package wired at all.
package chaos

import (
	"math/rand"

	"repro/internal/autoscale"
	"repro/internal/router"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/timeseries"
	"repro/internal/trace"
)

// Fault labels: stable strings for traces and metrics (constants, so
// emission never builds a string).
const (
	// LabelCrash is an instance crash: in-flight and queued requests
	// orphaned, device and host-tier cache lost, instance removed with
	// its ID retired.
	LabelCrash = "crash"
	// LabelStraggler is a slow-node onset: the instance's cost model
	// prices every pass SlowFactor× slower until the episode ends.
	LabelStraggler = "straggler"
	// LabelStragglerEnd marks the end of a straggler episode (trace
	// only; not a fault in the counters).
	LabelStragglerEnd = "straggler-end"
	// LabelPreemptNotice is a spot preemption notice: the instance is
	// drained and condemned (it can never be revived).
	LabelPreemptNotice = "preempt-notice"
	// LabelPreemptKill is the preemption deadline expiring on a not-yet-
	// released instance: a forced kill of whatever hasn't finished.
	LabelPreemptKill = "preempt-kill"
)

// Labels lists the fault labels that count as faults, in metrics order.
func Labels() []string {
	return []string{LabelCrash, LabelStraggler, LabelPreemptNotice, LabelPreemptKill}
}

// Config parameterizes the injector. A kind is enabled by a positive
// rate; with every rate zero New returns a nil (disabled) injector.
// Recovery is tracked at fixed settings: recoveryCheckSeconds (1 s) and
// recoveryTimeoutSeconds (600 s).
type Config struct {
	// Seed drives the fault-time and victim-choice streams. Each fault
	// kind derives its own independent substream, so enabling one kind
	// does not perturb another's schedule.
	Seed int64
	// CrashRate is instance crashes per simulated second (Poisson).
	CrashRate float64
	// StragglerRate is slow-node onsets per simulated second.
	StragglerRate float64
	// SlowFactor is the straggler speed multiplier (>1 is slower;
	// default 4).
	SlowFactor float64
	// StragglerSeconds is the straggler episode length (default 30).
	StragglerSeconds float64
	// PreemptRate is spot preemption notices per simulated second.
	PreemptRate float64
	// NoticeSeconds is the preemption drain deadline: notice → forced
	// kill of whatever hasn't finished (default 30).
	NoticeSeconds float64
	// RetryBudget is how many times an orphaned request may be
	// re-admitted before it is shed with reason "orphan-retries"
	// (default 3; negative means 0 — orphans are shed outright).
	RetryBudget int
	// HorizonSeconds bounds fault injection: no fault fires after this
	// sim time. Batch runs must set it (the natural choice is the last
	// arrival time) — with no horizon a fault stream re-arms while any
	// event is pending, and two periodic loops (the stream and the
	// autoscaler tick, say) each keep the other's next event pending
	// forever, so the run never drains. Zero means unbounded, which is
	// only for online servers whose tick loops are deliberately
	// KeepAlive.
	HorizonSeconds float64
}

// Recovery tracking after a kill fault: recovery times are measured every
// recoveryCheckSeconds (1 s), and a fault still unrecovered after
// recoveryTimeoutSeconds (600 s) counts as Unrecovered. The cap is what
// lets the recovery checker, a periodic loop of its own, terminate when
// the pool never restores.
const (
	recoveryCheckSeconds   = 1
	recoveryTimeoutSeconds = 600
)

func (c *Config) defaults() {
	if c.SlowFactor <= 0 {
		c.SlowFactor = 4
	}
	if c.StragglerSeconds <= 0 {
		c.StragglerSeconds = 30
	}
	if c.NoticeSeconds <= 0 {
		c.NoticeSeconds = 30
	}
	switch {
	case c.RetryBudget < 0:
		c.RetryBudget = 0
	case c.RetryBudget == 0:
		c.RetryBudget = 3
	}
}

// Enabled reports whether any fault kind is configured.
func (c Config) Enabled() bool {
	return c.CrashRate > 0 || c.StragglerRate > 0 || c.PreemptRate > 0
}

// Options wires the injector's hooks. All fields are optional.
type Options struct {
	// Controller, when non-nil, has lost capacity reported to it
	// (GPU-seconds accounting); its floor-restore and backlog signals do
	// the actual re-provisioning.
	Controller *autoscale.Controller
	// Tracer receives fault instants (nil-safe).
	Tracer *trace.Recorder
	// Timeseries receives per-window fault/orphan counts (nil-safe).
	Timeseries *timeseries.Collector
	// OnShed is called for every orphaned request dropped instead of
	// re-admitted — retry budget exhausted (reason "orphan-retries") or
	// re-admission rejected (the admission reason). The run driver
	// answers the request's waiter / tallies the shed.
	OnShed func(r *sched.Request, rej *router.RejectError)
}

// Stats is the injector's cumulative activity.
type Stats struct {
	// Crashes, Stragglers, PreemptNotices and PreemptKills count fault
	// events by kind (a preemption that misses its deadline counts one
	// notice and one kill).
	Crashes, Stragglers, PreemptNotices, PreemptKills uint64
	// Orphaned counts requests orphaned by kill faults; Rerouted the
	// ones re-admitted through admission; Shed the ones dropped.
	// Orphaned == Rerouted + Shed.
	Orphaned, Rerouted, Shed uint64
	// ShedRetries is the Shed share dropped for an exhausted retry
	// budget; ShedRejected the share whose re-admission was rejected.
	ShedRetries, ShedRejected uint64
	// Recoveries counts kill faults after which the routable pool
	// returned to its pre-fault size; RecoverySecondsTotal sums the
	// observed recovery times (measured at 1 s granularity) and
	// MaxRecoverySeconds is the worst one. Unrecovered counts kill faults
	// still unrecovered after 600 s.
	Recoveries           uint64
	Unrecovered          uint64
	RecoverySecondsTotal float64
	MaxRecoverySeconds   float64
}

// Faults returns the total fault events across kinds.
func (s Stats) Faults() uint64 {
	return s.Crashes + s.Stragglers + s.PreemptNotices + s.PreemptKills
}

// ByLabel returns the fault count of one label (0 for unknown labels).
func (s Stats) ByLabel(label string) uint64 {
	switch label {
	case LabelCrash:
		return s.Crashes
	case LabelStraggler:
		return s.Stragglers
	case LabelPreemptNotice:
		return s.PreemptNotices
	case LabelPreemptKill:
		return s.PreemptKills
	}
	return 0
}

// MeanRecoverySeconds returns the mean measured recovery time (0 when
// no recovery completed).
func (s Stats) MeanRecoverySeconds() float64 {
	if s.Recoveries == 0 {
		return 0
	}
	return s.RecoverySecondsTotal / float64(s.Recoveries)
}

// recovery tracks one kill fault until the routable pool is back to its
// pre-fault size.
type recovery struct {
	start  float64
	target int
}

// stream is one fault kind's seeded schedule: exponential gaps between
// events and a dedicated victim-choice generator.
type stream struct {
	in      *Injector
	label   string
	gap     *sim.Poisson
	victims *rand.Rand
	armed   bool
	// done marks a stream whose next gap passed HorizonSeconds: it has
	// stopped for good, and Start must not revive it with a fresh gap.
	done bool
}

// Injector schedules fault events on the sim clock. A nil *Injector is
// the disabled injector: every method is a nil-guarded no-op, so wiring
// code passes it unconditionally (enforced by prefillvet's nilguard).
//
//prefill:niltolerant
type Injector struct {
	cfg   Config
	clock sim.Clock
	rt    *router.Router
	opts  Options

	streams    []*stream
	recovering []recovery
	checking   bool

	stats Stats
}

// New builds an injector over a running router, scheduling on clock —
// which must be the kernel's coordinator clock in sharded runs. It
// returns nil (the disabled injector) when cfg enables no fault kind.
func New(cfg Config, clock sim.Clock, rt *router.Router, opts Options) *Injector {
	if !cfg.Enabled() {
		return nil
	}
	cfg.defaults()
	in := &Injector{cfg: cfg, clock: clock, rt: rt, opts: opts}
	// Independent substreams per kind: fault gaps at seed+k, victim
	// choice at seed+16+k (arbitrary fixed offsets; what matters is that
	// they are distinct and derived only from the config seed).
	mk := func(label string, rate float64, k int64) {
		if rate <= 0 {
			return
		}
		in.streams = append(in.streams, &stream{
			in:      in,
			label:   label,
			gap:     sim.NewPoisson(rate, cfg.Seed+k),
			victims: rand.New(rand.NewSource(cfg.Seed + 16 + k)),
		})
	}
	mk(LabelCrash, cfg.CrashRate, 0)
	mk(LabelStraggler, cfg.StragglerRate, 1)
	mk(LabelPreemptNotice, cfg.PreemptRate, 2)
	return in
}

// Enabled reports whether the injector is live.
func (in *Injector) Enabled() bool { return in != nil }

// Stats returns the injector's activity so far.
func (in *Injector) Stats() Stats {
	if in == nil {
		return Stats{}
	}
	return in.stats
}

// Start arms every fault stream that is not already ticking or stopped
// by the horizon. Idempotent; call it whenever work is submitted (without
// a horizon the streams park when the event queue drains, mirroring the
// trace sampler's re-arm discipline).
func (in *Injector) Start() {
	if in == nil {
		return
	}
	for _, st := range in.streams {
		if !st.armed && !st.done {
			st.armed = true
			st.rearm()
		}
	}
}

// streamFire is the fault streams' fast-path event callback.
func streamFire(arg any) {
	st := arg.(*stream)
	st.fire()
	st.rearm()
}

// rearm schedules the stream's next fault. With a horizon, the stream
// runs unconditionally until the horizon and then stops for good; with
// none (online servers) it follows the sampler discipline — re-arm only
// while other events are pending — and Start revives it on new work.
func (st *stream) rearm() {
	in := st.in
	gap := st.gap.Next()
	if in.cfg.HorizonSeconds > 0 {
		if in.clock.Now()+gap <= in.cfg.HorizonSeconds {
			in.clock.AfterFunc(gap, streamFire, st)
		} else {
			st.armed, st.done = false, true
		}
		return
	}
	if in.clock.Pending() > 0 {
		in.clock.AfterFunc(gap, streamFire, st)
	} else {
		st.armed = false
	}
}

// fire injects one fault of the stream's kind on a victim drawn from the
// routable pool (no routable instance: the fault lands on nothing).
func (st *stream) fire() {
	in := st.in
	infos := in.rt.InstanceInfos()
	candidates := candidateIDs(infos)
	if len(candidates) == 0 {
		return
	}
	victim := candidates[st.victims.Intn(len(candidates))]
	switch st.label {
	case LabelCrash:
		if in.kill(victim, LabelCrash) {
			in.stats.Crashes++
		}
	case LabelStraggler:
		in.straggle(victim)
	case LabelPreemptNotice:
		in.preempt(victim)
	}
}

// candidateIDs collects the routable instance IDs in slot order.
func candidateIDs(infos []router.InstanceInfo) []int {
	ids := make([]int, 0, len(infos))
	for _, info := range infos {
		if !info.Draining {
			ids = append(ids, info.ID)
		}
	}
	return ids
}

// kill force-removes an instance (crash, or preemption deadline): the
// engine is killed, lost capacity is reported, and every orphan is
// re-admitted through admission under the retry budget. It reports
// whether the instance was killed, so the caller counts only real faults.
func (in *Injector) kill(id int, label string) bool {
	now := in.clock.Now()
	gpus := 0
	for _, info := range in.rt.InstanceInfos() {
		if info.ID == id {
			gpus = info.GPUs
			break
		}
	}
	orphans, err := in.rt.Fail(id)
	if err != nil {
		return false
	}
	in.opts.Timeseries.Fault(now)
	in.opts.Tracer.Fault(now, label, id, len(orphans), in.rt.Routable())
	if in.opts.Controller != nil {
		in.opts.Controller.InstanceLost(now, gpus)
		in.noteFault(now)
	}
	in.stats.Orphaned += uint64(len(orphans))
	for _, r := range orphans {
		r.Retries++
		if r.Retries > in.cfg.RetryBudget {
			in.shed(now, r, &router.RejectError{
				Policy:   in.rt.Policy().Name(),
				Instance: -1,
				Class:    r.Class,
				Reason:   router.ReasonOrphanRetries,
			})
			in.stats.ShedRetries++
			continue
		}
		if err := in.rt.Submit(r); err != nil {
			rej, ok := err.(*router.RejectError)
			if !ok {
				rej = &router.RejectError{Policy: in.rt.Policy().Name(), Instance: -1,
					Class: r.Class, Reason: router.ReasonNoCapacity}
			}
			in.shed(now, r, rej)
			in.stats.ShedRejected++
			continue
		}
		in.stats.Rerouted++
		in.opts.Timeseries.OrphanRerouted(now)
	}
	return true
}

// shed drops an orphan: counters, timeseries, and the driver's hook.
func (in *Injector) shed(now float64, r *sched.Request, rej *router.RejectError) {
	in.stats.Shed++
	in.opts.Timeseries.OrphanShed(now)
	if in.opts.OnShed != nil {
		in.opts.OnShed(r, rej)
	}
}

// speedEngine is satisfied by engines with a straggler speed knob
// (engine.Serial has one).
type speedEngine interface {
	SetSpeedFactor(factor float64)
}

// straggle starts a straggler episode on an instance: its cost model
// prices SlowFactor× slower until the episode ends. Episodes on an
// instance that crashes mid-way end harmlessly (the engine is gone from
// the router but the knob still exists).
func (in *Injector) straggle(id int) {
	eng, err := in.rt.EngineOf(id)
	if err != nil {
		return
	}
	se, ok := eng.(speedEngine)
	if !ok {
		return
	}
	now := in.clock.Now()
	in.stats.Stragglers++
	in.opts.Timeseries.Fault(now)
	in.opts.Tracer.Fault(now, LabelStraggler, id, 0, in.rt.Routable())
	se.SetSpeedFactor(in.cfg.SlowFactor)
	in.clock.After(in.cfg.StragglerSeconds, func() {
		se.SetSpeedFactor(1)
		in.opts.Tracer.Fault(in.clock.Now(), LabelStragglerEnd, id, 0, in.rt.Routable())
	})
}

// preempt delivers a spot preemption notice: the instance drains and is
// condemned (Undrain fails, so the autoscaler's revive path falls
// through to a cold start), and a deadline event forces a kill of
// whatever hasn't been released by then.
func (in *Injector) preempt(id int) {
	if err := in.rt.Drain(id); err != nil {
		return
	}
	// Drain succeeded, so the instance exists; Condemn cannot fail.
	_ = in.rt.Condemn(id)
	now := in.clock.Now()
	in.stats.PreemptNotices++
	in.opts.Timeseries.Fault(now)
	in.opts.Tracer.Fault(now, LabelPreemptNotice, id, 0, in.rt.Routable())
	in.clock.After(in.cfg.NoticeSeconds, func() {
		if !in.rt.Has(id) {
			// Drained and released within the notice: graceful preemption.
			return
		}
		if in.kill(id, LabelPreemptKill) {
			in.stats.PreemptKills++
		}
	})
}

// noteFault registers a kill fault for recovery tracking: the fault is
// recovered when the routable pool is back to its pre-fault size. Only
// autoscaled runs track recovery (a fixed fleet cannot re-provision).
func (in *Injector) noteFault(now float64) {
	// Routable() is the post-fault size; the pre-fault target is one more.
	in.recovering = append(in.recovering, recovery{start: now, target: in.rt.Routable() + 1})
	if !in.checking && in.clock.Pending() > 0 {
		in.checking = true
		in.clock.AfterFunc(recoveryCheckSeconds, recoveryTick, in)
	}
}

// recoveryTick is the recovery checker's fast-path event callback.
func recoveryTick(arg any) { arg.(*Injector).checkRecovery() }

// checkRecovery resolves outstanding recoveries and re-arms while any
// remain (and the run is still live).
func (in *Injector) checkRecovery() {
	now := in.clock.Now()
	routable := in.rt.Routable()
	keep := in.recovering[:0]
	for _, rec := range in.recovering {
		if routable >= rec.target {
			in.stats.Recoveries++
			d := now - rec.start
			in.stats.RecoverySecondsTotal += d
			if d > in.stats.MaxRecoverySeconds {
				in.stats.MaxRecoverySeconds = d
			}
			continue
		}
		if now-rec.start >= recoveryTimeoutSeconds {
			// The pool never restored (ceiling reached, factory failed, or
			// the run wound down): give up so the checker — itself a
			// periodic loop — can park and let the run drain.
			in.stats.Unrecovered++
			continue
		}
		keep = append(keep, rec)
	}
	in.recovering = keep
	if len(in.recovering) > 0 && in.clock.Pending() > 0 {
		in.clock.AfterFunc(recoveryCheckSeconds, recoveryTick, in)
	} else {
		in.checking = false
	}
}
