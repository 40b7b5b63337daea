// Package autoscale closes the control loop over internal/router: a
// controller watches the router's load view (per-instance backlog seconds,
// queue depth, and the admission tally's sheds over a sliding window of
// windowTicks control ticks) and elastically sizes the instance pool
// between a floor and a ceiling.
//
// The scale-up signals are SLO-class-aware: the controller reads the
// interactive share of each instance's backlog and the interactive sheds,
// not the aggregates, so batch backlog or batch sheds alone never
// trigger a cold start — GPUs are provisioned for latency-sensitive
// pressure, while batch work absorbs whatever capacity that leaves.
// Scale-down stays conservative on the aggregate: an instance is not
// drained while any class still has queued work or saw a shed in the
// window, because releasing capacity mid-batch would only re-shed the
// batch tier.
//
// Scale-up is not free: a new instance pays a cold-start delay — the time
// to load the model weights onto the device, priced from the hw/model
// catalogs over the host (PCIe) link plus, for multi-GPU instances, the
// peer (PCIe/NVLink) shard exchange — before the router starts offering it
// to policies. Scale-down is graceful: the controller drains the
// least-loaded instance (the router stops routing to it), lets its
// in-flight work finish, then releases it. GPU-seconds are accounted from
// the moment an instance is provisioned (cold start included — the device
// is held while weights load) until release, so experiments can compare
// the provisioning cost of an elastic pool against a fixed fleet.
//
// Like the router, the controller is not goroutine-safe: its ticks run as
// simulation events, and the HTTP backend serializes access under its own
// lock.
package autoscale

import (
	"fmt"
	"math"

	"repro/internal/engine"
	"repro/internal/hw"
	"repro/internal/model"
	"repro/internal/ringbuf"
	"repro/internal/router"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/trace"
)

// ColdStartSeconds prices bringing up one instance: every GPU of the
// instance streams its weight shard from host memory over the PCIe host
// link in parallel, and multi-GPU instances additionally exchange shards
// over the peer link (PCIe or NVLink) to materialize their layout. This
// is the floor for real deployments (checkpoint already in page cache);
// disk or network fetch only adds to it.
func ColdStartSeconds(m *model.Config, g *hw.GPU, gpus int) float64 {
	if gpus < 1 {
		gpus = 1
	}
	w := float64(m.WeightBytes())
	cold := w / float64(gpus) / float64(g.HostBWBytes)
	if gpus > 1 {
		cold += w / float64(gpus) / float64(g.PeerBWBytes)
	}
	return cold
}

// windowTicks is the length, in control ticks, of the sliding window the
// shed signals read (8 ticks). Any interactive shed in the window
// triggers scale-up; any shed of any class vetoes scale-down.
const windowTicks = 8

// Config tunes the controller. Zero values take the noted defaults. The
// shed window is fixed at windowTicks (8) ticks.
type Config struct {
	// MinInstances is the pool floor (default 1). The controller restores
	// it unconditionally if the pool ever sits below.
	MinInstances int
	// MaxInstances is the pool ceiling (default MinInstances).
	MaxInstances int
	// TickSeconds is the control interval in simulated seconds (default 1).
	// At most one scaling action is taken per tick.
	TickSeconds float64
	// UpBacklogSeconds triggers scale-up when the mean estimated
	// interactive-class backlog per routable instance exceeds it, or when
	// any single instance's interactive backlog exceeds twice it — a
	// skewed workload can swamp one affinity home toward the admission
	// bound while the mean stays quiet (default 4). Batch backlog is
	// excluded: batch pressure alone never pays a cold start.
	UpBacklogSeconds float64
	// DownBacklogSeconds permits scale-down when the mean backlog (all
	// classes) is below it and the sliding window saw no sheds of any
	// class — batch sheds don't provision capacity, but they do veto
	// releasing it, or draining would amplify the shed rate (default 0.5).
	DownBacklogSeconds float64
	// CooldownSeconds damps scale-down flapping: after any scaling action
	// the controller waits this long before draining an instance (default
	// max(2·TickSeconds, cold start)).
	CooldownSeconds float64
	// ColdStartSeconds overrides the derived cold-start delay when
	// positive; otherwise it is ColdStartSeconds(Model, GPU, gpus of the
	// first instance the factory builds).
	ColdStartSeconds float64
	// Model and GPU are the catalog entries the cold-start delay is
	// derived from; required unless ColdStartSeconds is set.
	Model *model.Config
	GPU   *hw.GPU
	// KeepAlive keeps the tick loop alive when the simulation is
	// otherwise idle. Online servers set it (traffic arrives from the
	// wall clock); batch experiments leave it unset so the event queue
	// drains and the run terminates.
	KeepAlive bool
	// Tracer, when non-nil, receives cold-start window spans (scale-up
	// decision → routable) and revive instants. The pool-size gauge is
	// the fleet sampler's.
	Tracer *trace.Recorder
}

func (c *Config) defaults() error {
	if c.MinInstances <= 0 {
		c.MinInstances = 1
	}
	if c.MaxInstances <= 0 {
		c.MaxInstances = c.MinInstances
	}
	if c.MaxInstances < c.MinInstances {
		return fmt.Errorf("autoscale: MaxInstances %d < MinInstances %d", c.MaxInstances, c.MinInstances)
	}
	if c.TickSeconds <= 0 {
		c.TickSeconds = 1
	}
	if c.UpBacklogSeconds <= 0 {
		c.UpBacklogSeconds = 4
	}
	if c.DownBacklogSeconds <= 0 {
		c.DownBacklogSeconds = 0.5
	}
	if c.ColdStartSeconds <= 0 && (c.Model == nil || c.GPU == nil) {
		return fmt.Errorf("autoscale: need Model and GPU to derive the cold start (or set ColdStartSeconds)")
	}
	return nil
}

// Stats is the controller's cumulative activity.
type Stats struct {
	// ScaleUps and ScaleDowns count provisioning decisions (a scale-down
	// is counted when the drain starts, not when the instance releases).
	ScaleUps, ScaleDowns int
	// Revives counts scale-ups satisfied by undraining a still-warm
	// draining instance instead of cold-starting a new one.
	Revives int
	// Lost counts instances that crashed or were preemption-killed
	// (reported via InstanceLost) rather than gracefully released.
	Lost int
	// PeakInstances and MinInstances bound the observed pool size
	// (provisioning cold starts included).
	PeakInstances, MinInstances int
	// Ticks is the number of control intervals evaluated.
	Ticks int
	// ColdStartSeconds is the delay each scale-up paid.
	ColdStartSeconds float64
}

// windowSample is one tick's admission-reject delta: rejected covers the
// scale-up classes (every class but batch), rejectedAll every class.
type windowSample struct {
	rejected, rejectedAll int64
}

// Controller is the elastic pool controller.
type Controller struct {
	cfg     Config
	s       sim.Clock
	rt      *router.Router
	factory func() (engine.Engine, error)

	pendingAdds int // scale-ups decided but still cold-starting
	lastAction  float64
	cooldown    float64
	running     bool
	stopped     bool
	err         error

	window          ringbuf.Ring[windowSample]
	lastRejected    int64
	lastRejectedAll int64

	// GPU-seconds accrue by integrating the owned-GPU gauge over time.
	poolGPUs    int
	gpuSeconds  float64
	lastAccrual float64

	stats Stats
}

// New builds a controller over a running router. The factory constructs
// one new engine instance (profile run included) per scale-up; engines it
// returns must be wired to the same simulation and completion sink as the
// router's existing instances. The router's current instances are adopted
// as the initial pool, provisioned as of the current simulated time.
func New(cfg Config, s sim.Clock, rt *router.Router, factory func() (engine.Engine, error)) (*Controller, error) {
	if s == nil || rt == nil || factory == nil {
		return nil, fmt.Errorf("autoscale: sim, router and factory are required")
	}
	if err := cfg.defaults(); err != nil {
		return nil, err
	}
	if cfg.ColdStartSeconds <= 0 {
		gpus := 1
		if infos := rt.InstanceInfos(); len(infos) > 0 {
			gpus = infos[0].GPUs
		}
		cfg.ColdStartSeconds = ColdStartSeconds(cfg.Model, cfg.GPU, gpus)
	}
	if cfg.CooldownSeconds <= 0 {
		cfg.CooldownSeconds = max(2*cfg.TickSeconds, cfg.ColdStartSeconds)
	}
	size := rt.Size()
	c := &Controller{
		cfg:         cfg,
		s:           s,
		rt:          rt,
		factory:     factory,
		lastAction:  s.Now(),
		poolGPUs:    rt.GPUs(),
		lastAccrual: s.Now(),
		stats: Stats{
			PeakInstances:    size,
			MinInstances:     size,
			ColdStartSeconds: cfg.ColdStartSeconds,
		},
	}
	return c, nil
}

// Start schedules the first control tick. Idempotent.
func (c *Controller) Start() {
	if c.running || c.stopped {
		return
	}
	c.running = true
	c.s.AfterFunc(c.cfg.TickSeconds, tickEvent, c)
}

// tickEvent is the controller's tick callback on the sim fast path: a
// package-level function plus the controller pointer, so the periodic
// tick allocates nothing per firing (a method value `c.tick` would).
func tickEvent(arg any) { arg.(*Controller).tick() }

// Stop ends the tick loop after the currently scheduled tick fires.
func (c *Controller) Stop() { c.stopped = true }

// Err reports the first factory failure; scaling up is disabled after one.
func (c *Controller) Err() error { return c.err }

// Size is the target pool size: routable instances plus cold-starting
// additions, excluding draining instances.
func (c *Controller) Size() int { return c.rt.Routable() + c.pendingAdds }

// Stats returns the controller's activity so far.
func (c *Controller) Stats() Stats { return c.stats }

// GPUSeconds accrues and returns the GPU-seconds provisioned up to now:
// the integral of owned GPUs (cold-starting and draining included) over
// time since construction.
func (c *Controller) GPUSeconds(now float64) float64 {
	c.accrue(now)
	return c.gpuSeconds
}

// InstanceLost reports an instance crash or preemption kill to the
// accounting: its GPUs stop accruing from now (the machine is gone, not
// held through a drain). The capacity gap itself needs no special signal
// — the next tick sees the pool below the floor and the re-admitted
// orphans as backlog, and cold-starts a catalog-priced replacement
// (reviving a still-draining warm instance first).
func (c *Controller) InstanceLost(now float64, gpus int) {
	c.accrue(now)
	c.poolGPUs -= gpus
	if c.poolGPUs < 0 {
		c.poolGPUs = 0
	}
	c.stats.Lost++
}

func (c *Controller) accrue(now float64) {
	if now > c.lastAccrual {
		c.gpuSeconds += float64(c.poolGPUs) * (now - c.lastAccrual)
		c.lastAccrual = now
	}
}

// windowRejects folds the current tick's admission rejects into the
// sliding window and returns two shed counts over it: upRejects covers
// every class but batch — the scale-up trigger, so batch sheds never
// provision capacity — while allRejects counts every class and vetoes
// scale-down: draining while batch is actively being shed would only
// amplify the shed rate.
func (c *Controller) windowRejects() (upRejects, allRejects int64) {
	var rej, rejAll int64
	for class, d := range c.rt.Admission().Snapshot() {
		rejAll += d.Rejected
		if sched.Class(class) != sched.ClassBatch {
			rej += d.Rejected
		}
	}
	c.window.PushBack(windowSample{rejected: rej - c.lastRejected, rejectedAll: rejAll - c.lastRejectedAll})
	c.lastRejected, c.lastRejectedAll = rej, rejAll
	if c.window.Len() > windowTicks {
		c.window.PopFront()
	}
	for i := 0; i < c.window.Len(); i++ {
		s := c.window.At(i)
		upRejects += s.rejected
		allRejects += s.rejectedAll
	}
	return upRejects, allRejects
}

// tick is one control interval: release drained instances, read the load
// signals, and take at most one scaling action.
func (c *Controller) tick() {
	if c.stopped {
		c.running = false
		return
	}
	now := c.s.Now()
	c.stats.Ticks++

	rejects, allRejects := c.windowRejects()
	// Scale-up reads the interactive share of the backlog; scale-down and
	// drain-candidate selection read the aggregate (capacity is released
	// only when no class has queued work). An unlabeled pre-class router
	// reports everything as interactive (the zero class), so the split
	// signals degenerate to the aggregates there.
	var upBacklogSum, upMaxBacklog float64
	var aggBacklogSum float64
	routable := 0
	var drainCandidate router.InstanceInfo
	haveCandidate := false
	for _, info := range c.rt.InstanceInfos() {
		if info.Draining {
			continue
		}
		routable++
		interactive := info.Load.ClassBacklog(sched.ClassInteractive)
		upBacklogSum += interactive
		if interactive > upMaxBacklog {
			upMaxBacklog = interactive
		}
		aggBacklogSum += info.Load.BacklogSeconds
		if !haveCandidate ||
			info.Load.BacklogSeconds < drainCandidate.Load.BacklogSeconds ||
			(info.Load.BacklogSeconds == drainCandidate.Load.BacklogSeconds &&
				info.Load.QueuedTokens < drainCandidate.Load.QueuedTokens) {
			drainCandidate, haveCandidate = info, true
		}
	}
	avgUpBacklog, avgAggBacklog := 0.0, 0.0
	if routable > 0 {
		avgUpBacklog = upBacklogSum / float64(routable)
		avgAggBacklog = aggBacklogSum / float64(routable)
	}
	n := routable + c.pendingAdds

	switch {
	case n < c.cfg.MinInstances:
		// Below the floor (e.g. the pool was constructed small, or Min was
		// raised): restore unconditionally.
		c.scaleUp(now)
	case n < c.cfg.MaxInstances && c.err == nil &&
		(avgUpBacklog > c.cfg.UpBacklogSeconds ||
			upMaxBacklog > 2*c.cfg.UpBacklogSeconds ||
			rejects > 0):
		// Proportional step: provision enough instances to bring the mean
		// interactive backlog back to the trigger threshold, not one at a
		// time — a square-wave burst otherwise outruns the tick-by-tick
		// ramp by several cold starts. Interactive sheds escalate to the
		// ceiling outright: by the time admission control is dropping
		// latency-sensitive requests, the backlog signal has already been
		// outrun, and a shed SLO costs more than the extra cold starts of
		// an overshoot.
		target := n + 1
		if want := int(math.Ceil(upBacklogSum / c.cfg.UpBacklogSeconds)); want > target {
			target = want
		}
		if rejects > 0 {
			target = c.cfg.MaxInstances
		}
		if target > c.cfg.MaxInstances {
			target = c.cfg.MaxInstances
		}
		for i := n; i < target; i++ {
			c.scaleUp(now)
		}
	case routable > c.cfg.MinInstances && haveCandidate && allRejects == 0 &&
		avgAggBacklog < c.cfg.DownBacklogSeconds &&
		now-c.lastAction >= c.cfg.CooldownSeconds:
		// Graceful drain: the router stops offering the instance; a later
		// tick releases it once its queue empties. The guard counts only
		// routable instances — cold-starting additions must not license a
		// drain, or the pool could briefly have nothing to route to (a
		// short cooldown makes this reachable: scale up, backlog empties,
		// drain fires while the addition is still loading weights).
		if err := c.rt.Drain(drainCandidate.ID); err == nil {
			c.stats.ScaleDowns++
			c.lastAction = now
		}
	}

	// Release draining instances whose in-flight work has finished — after
	// the scaling decision, so a scale-up triggered this tick revives a
	// warm drained instance instead of watching it released and then
	// paying a cold start for the same capacity.
	for _, info := range c.rt.InstanceInfos() {
		if drained, err := c.rt.Drained(info.ID); err != nil || !drained {
			continue
		}
		c.accrue(now)
		if err := c.rt.Remove(info.ID); err == nil {
			c.poolGPUs -= info.GPUs
		}
	}

	if size := c.Size(); size > c.stats.PeakInstances {
		c.stats.PeakInstances = size
	} else if size < c.stats.MinInstances {
		c.stats.MinInstances = size
	}

	// Keep ticking while there is anything left to react to: queued
	// events (arrivals, executions, cold starts) or in-flight work. A
	// batch run's event queue then drains and the simulation terminates;
	// KeepAlive servers tick until stopped.
	if c.cfg.KeepAlive || c.s.Pending() > 0 || c.rt.InFlight() > 0 {
		c.s.AfterFunc(c.cfg.TickSeconds, tickEvent, c)
	} else {
		c.running = false
	}
}

// scaleUp adds one instance of capacity. A still-draining instance is
// revived first — its weights are already on the device, so undraining
// restores capacity instantly instead of paying a cold start for
// capacity the pool still owns. Otherwise a new engine is built now (the
// GPU is owned from this moment) and becomes routable after the
// cold-start delay.
func (c *Controller) scaleUp(now float64) {
	for _, info := range c.rt.InstanceInfos() {
		if info.Draining {
			if err := c.rt.Undrain(info.ID); err == nil {
				c.stats.Revives++
				c.lastAction = now
				c.cfg.Tracer.ColdStart(now, 0, "revive", c.Size())
				return
			}
		}
	}
	eng, err := c.factory()
	if err != nil {
		if c.err == nil {
			c.err = fmt.Errorf("autoscale: building instance: %w", err)
		}
		return
	}
	c.accrue(now)
	c.poolGPUs += eng.GPUs()
	c.pendingAdds++
	c.stats.ScaleUps++
	c.lastAction = now
	c.cfg.Tracer.ColdStart(now, c.cfg.ColdStartSeconds, "coldstart", c.Size())
	c.s.After(c.cfg.ColdStartSeconds, func() {
		c.pendingAdds--
		if _, err := c.rt.AddInstance(eng); err != nil && c.err == nil {
			c.err = err
		}
	})
}
