// Package timeseries is the sim-time windowed aggregation engine: it
// turns the run's existing event callbacks (arrival, completion,
// rejection) and a gauge sampler over fleet state into fixed-interval
// series — throughput, arrival rate, per-class latency quantiles via
// streaming histograms, shed rate by reason, queue depth and backlog,
// cache hit ratio, pool size, cumulative GPU-seconds, and per-class
// rolling SLO attainment/burn rate for the predictive autoscaler to
// consume.
//
// Windows are half-open intervals [k·i, (k+1)·i) of simulated time: an
// event at exactly a boundary t = k·i belongs to the window that starts
// at t, never the one that ends there. Windows close when sim time
// reaches their end — normally on the collector's own boundary-aligned
// tick events, or lazily when a data callback arrives past the current
// window's end (after a drained idle gap). Gauges are sampled at the
// moment a window closes; when one catch-up closes several gap windows
// at once they share one sample, which is exact for everything but the
// time-integrated GPU-seconds (the fleet was idle through the gap).
//
// The collector is nil-safe — every method no-ops on a nil receiver, so
// the disabled path stays a single branch and allocates nothing — and
// deterministic: all inputs are sim-event times and counts, never wall
// clocks, so enabled runs replay bit-identically across kernel shard
// counts.
package timeseries

import (
	"sync"

	"repro/internal/metrics"
	"repro/internal/sched"
	"repro/internal/sim"
)

// Defaults for Config zero values.
const (
	// DefIntervalSeconds is the default window width.
	DefIntervalSeconds = 1.0
	// DefSLOObjective is the default SLO objective the burn rate is
	// computed against.
	DefSLOObjective = 0.99
	// DefRollingWindows is the default rolling-attainment horizon.
	DefRollingWindows = 12
	// DefMaxWindows caps retained rows; older windows drop from the
	// front (the export counts them), bounding memory on long-lived
	// servers.
	DefMaxWindows = 8192
)

// DefSLOTargetSeconds are the default per-class latency targets: the
// interactive class tracks the 2.5s latency bucket, batch the 25s one.
var DefSLOTargetSeconds = [sched.NumClasses]float64{2.5, 25}

// Gauges is one point-in-time sample of fleet state, taken as a window
// closes. The sampler installed with SetSample fills it from whatever
// sources the caller wires (router instance infos, cache manager,
// autoscale controller).
type Gauges struct {
	// QueuedRequests is the fleet-wide queue depth (admitted, unfinished).
	QueuedRequests int
	// BacklogSeconds is the fleet-wide backlog in estimated seconds.
	BacklogSeconds float64
	// PoolSize is the number of routable instances.
	PoolSize int
	// PendingInstances is instances provisioning but not yet routable.
	PendingInstances int
	// CacheHitRatio is the cumulative prefix-cache hit ratio in [0, 1].
	CacheHitRatio float64
	// GPUSeconds is cumulative GPU-seconds owned by the fleet.
	GPUSeconds float64
}

// Config parameterizes a Collector. Zero values take the Def defaults.
// Gauges come from the sampler installed with SetSample; until one is
// installed they stay zero.
type Config struct {
	// IntervalSeconds is the window width in simulated seconds.
	IntervalSeconds float64
	// SLOTargetSeconds is the per-class latency target a completion must
	// meet to count toward SLO attainment.
	SLOTargetSeconds [sched.NumClasses]float64
	// SLOObjective is the attainment objective burn rate is relative to:
	// burn = (1 - rolling attainment) / (1 - objective).
	SLOObjective float64
	// RollingWindows is how many trailing windows the rolling attainment
	// averages over.
	RollingWindows int
	// MaxWindows bounds retained rows; excess drops oldest-first.
	MaxWindows int
}

// classAccum is one class's counters within the current window.
type classAccum struct {
	arrivals    uint64
	completions uint64
	rejects     uint64
	good        uint64 // completions within the SLO target
}

// rolling is one class's trailing-window attainment ring.
type rolling struct {
	good     []uint64
	total    []uint64
	pos      int
	n        int
	sumGood  uint64
	sumTotal uint64
}

func (r *rolling) push(good, total uint64) {
	if r.n == len(r.good) {
		r.sumGood -= r.good[r.pos]
		r.sumTotal -= r.total[r.pos]
	} else {
		r.n++
	}
	r.good[r.pos] = good
	r.total[r.pos] = total
	r.sumGood += good
	r.sumTotal += total
	r.pos = (r.pos + 1) % len(r.good)
}

// reset empties the ring — used when a bulk-skipped idle gap spans more
// windows than the ring holds, so every slot would be (0, 0) anyway.
func (r *rolling) reset() {
	for i := range r.good {
		r.good[i], r.total[i] = 0, 0
	}
	r.pos, r.n = 0, 0
	r.sumGood, r.sumTotal = 0, 0
}

// attainment returns the rolling attainment with (good, total) added on
// top of the ring (pass zeros for the closed-window value). Windows with
// no completions attain trivially.
func (r *rolling) attainment(good, total uint64) float64 {
	g, t := r.sumGood+good, r.sumTotal+total
	if t == 0 {
		return 1
	}
	return float64(g) / float64(t)
}

// Collector accumulates events into the current window and closes
// windows as sim time crosses their boundaries. All methods are safe on
// a nil receiver and under concurrent use (the server scrapes while its
// sim advances). The nil-receiver contract is enforced statically by
// prefillvet's nilguard analyzer.
//
//prefill:niltolerant
type Collector struct {
	mu        sync.Mutex
	interval  float64
	objective float64
	targets   [sched.NumClasses]float64
	maxRows   int
	sample    func(now float64) Gauges

	clock   *sim.Sim
	ticker  *sim.Observer // the boundary ticker, on clock
	running bool

	idx     int64   // current (open) window index
	lastNow float64 // latest event time seen

	arrivals    uint64
	completions uint64
	rejects     uint64
	rejectsBy   map[string]uint64
	// Chaos-injector activity within the current window.
	faults          uint64
	orphansRerouted uint64
	orphansShed     uint64
	class           [sched.NumClasses]classAccum
	hists           [sched.NumClasses]*metrics.Histogram
	roll            [sched.NumClasses]rolling

	rows    []Window // closed windows, oldest first
	dropped uint64
}

// New builds a collector from cfg, applying defaults for zero fields.
func New(cfg Config) *Collector {
	c := &Collector{
		interval:  cfg.IntervalSeconds,
		objective: cfg.SLOObjective,
		targets:   cfg.SLOTargetSeconds,
		maxRows:   cfg.MaxWindows,
	}
	if c.interval <= 0 {
		c.interval = DefIntervalSeconds
	}
	if c.objective <= 0 || c.objective >= 1 {
		c.objective = DefSLOObjective
	}
	if c.maxRows <= 0 {
		c.maxRows = DefMaxWindows
	}
	n := cfg.RollingWindows
	if n <= 0 {
		n = DefRollingWindows
	}
	for i := range c.hists {
		if c.targets[i] <= 0 {
			c.targets[i] = DefSLOTargetSeconds[i]
		}
		c.hists[i] = metrics.NewHistogram(metrics.DefLatencyBuckets)
		c.roll[i] = rolling{good: make([]uint64, n), total: make([]uint64, n)}
	}
	return c
}

// Enabled reports whether the collector is live (non-nil).
func (c *Collector) Enabled() bool { return c != nil }

// SetSample installs (or replaces) the gauge sampler, which fills the
// gauges at each window close. Callers build the collector before the
// fleet it observes exists, so the sampler is installed afterwards.
func (c *Collector) SetSample(fn func(now float64) Gauges) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.sample = fn
	c.mu.Unlock()
}

// IntervalSeconds returns the window width (0 on a nil collector).
func (c *Collector) IntervalSeconds() float64 {
	if c == nil {
		return 0
	}
	return c.interval
}

// windowStart/windowEnd compute boundaries from the integer index so
// repeated interval additions cannot drift.
func (c *Collector) windowStart(idx int64) float64 { return c.interval * float64(idx) }
func (c *Collector) windowEnd(idx int64) float64   { return c.interval * float64(idx+1) }

// Arrival records a request offered to the system at sim time now.
func (c *Collector) Arrival(now float64, class sched.Class) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.catchUp(now)
	c.arrivals++
	c.class[class].arrivals++
	c.mu.Unlock()
}

// Complete records a request finishing at sim time now with the given
// end-to-end latency. Callers must pass the completion's own event time
// (record finish), never a clock read: on the sharded kernel completions
// apply at window barriers, where the coordinator clock has already
// advanced.
func (c *Collector) Complete(now float64, class sched.Class, latencySeconds float64) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.catchUp(now)
	c.completions++
	ca := &c.class[class]
	ca.completions++
	if latencySeconds <= c.targets[class] {
		ca.good++
	}
	c.mu.Unlock()
	c.hists[class].Observe(latencySeconds)
}

// Reject records a request shed at sim time now for the given reason
// (router.RejectError reasons, admission "capacity", ...).
func (c *Collector) Reject(now float64, class sched.Class, reason string) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.catchUp(now)
	c.rejects++
	c.class[class].rejects++
	if c.rejectsBy == nil {
		c.rejectsBy = make(map[string]uint64, 4)
	}
	c.rejectsBy[reason]++
	c.mu.Unlock()
}

// Fault records a chaos-injector fault (crash, straggler onset or
// preemption event) at sim time now.
func (c *Collector) Fault(now float64) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.catchUp(now)
	c.faults++
	c.mu.Unlock()
}

// OrphanRerouted records a fault-orphaned request re-admitted through
// the router at sim time now.
func (c *Collector) OrphanRerouted(now float64) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.catchUp(now)
	c.orphansRerouted++
	c.mu.Unlock()
}

// OrphanShed records a fault-orphaned request shed (retry budget
// exhausted or re-admission rejected) at sim time now. Callers also
// report it via Reject with the shed reason; this counter isolates the
// orphan share.
func (c *Collector) OrphanShed(now float64) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.catchUp(now)
	c.orphansShed++
	c.mu.Unlock()
}

// Advance closes every window whose end is at or before now without
// recording an event — the tick path, also usable by manual drivers
// (tests) that have no clock attached.
func (c *Collector) Advance(now float64) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.catchUp(now)
	c.mu.Unlock()
}

// catchUp closes all windows with end <= now. One gauge sample, taken at
// now, is stamped into every window the call closes (normally exactly
// one, at its boundary tick). Callers hold c.mu.
func (c *Collector) catchUp(now float64) {
	if now > c.lastNow {
		c.lastNow = now
	}
	if c.windowEnd(c.idx) > now {
		return
	}
	var g Gauges
	if c.sample != nil {
		g = c.sample(now)
	}
	// Idle-gap fast path: when the clock jumped so far that the gap's
	// empty windows alone would overflow the row cap, every row held now
	// and every gap window but the trailing maxRows would be evicted
	// before this catch-up finished. Drop them up front instead, keeping
	// catch-up O(MaxWindows) however far a free-running server clock
	// jumped between events.
	if last := int64(now/c.interval) - 1; last-c.idx >= int64(c.maxRows) {
		c.closeWindow(g) // the open window holds the last pre-gap counts
		if skipTo := last - int64(c.maxRows) + 1; skipTo > c.idx {
			skipped := skipTo - c.idx
			c.dropped += uint64(len(c.rows)) + uint64(skipped)
			c.rows = c.rows[:0]
			c.idx = skipTo
			for i := range c.roll {
				// A skipped window is an implicit (0, 0) push.
				if r := &c.roll[i]; skipped >= int64(len(r.good)) {
					r.reset()
				} else {
					for k := int64(0); k < skipped; k++ {
						r.push(0, 0)
					}
				}
			}
		}
	}
	for c.windowEnd(c.idx) <= now {
		c.closeWindow(g)
	}
}

// closeWindow finalizes the current window into a row, folds its
// attainment into the rolling rings, resets the accumulators, and opens
// the next window. Callers hold c.mu.
func (c *Collector) closeWindow(g Gauges) {
	row := c.buildRow(c.windowEnd(c.idx), g, false)
	for i := range c.roll {
		ca := &c.class[i]
		c.roll[i].push(ca.good, ca.completions)
		row.Classes[i].RollingAttainment = c.roll[i].attainment(0, 0)
		row.Classes[i].BurnRate = c.burnRate(row.Classes[i].RollingAttainment)
		c.hists[i].Reset()
		*ca = classAccum{}
	}
	if len(c.rows) >= c.maxRows {
		n := copy(c.rows, c.rows[1:])
		c.rows = c.rows[:n]
		c.dropped++
	}
	c.rows = append(c.rows, row)
	c.arrivals, c.completions, c.rejects = 0, 0, 0
	c.faults, c.orphansRerouted, c.orphansShed = 0, 0, 0
	c.rejectsBy = nil
	c.idx++
}

// burnRate converts a rolling attainment into an error-budget burn rate
// relative to the objective: 1.0 burns the budget exactly, >1 burns it
// faster than allowed.
func (c *Collector) burnRate(attainment float64) float64 {
	return (1 - attainment) / (1 - c.objective)
}

// buildRow renders the current accumulators into a Window ending at end.
// Partial rows (snapshots mid-window) compute rolling attainment with
// the open window folded in on top of the ring, without mutating it.
// Callers hold c.mu.
func (c *Collector) buildRow(end float64, g Gauges, partial bool) Window {
	start := c.windowStart(c.idx)
	dur := end - start
	row := Window{
		Index:            c.idx,
		StartSeconds:     start,
		EndSeconds:       end,
		Partial:          partial,
		Arrivals:         c.arrivals,
		Completions:      c.completions,
		Rejects:          c.rejects,
		Faults:           c.faults,
		OrphansRerouted:  c.orphansRerouted,
		OrphansShed:      c.orphansShed,
		QueuedRequests:   g.QueuedRequests,
		BacklogSeconds:   g.BacklogSeconds,
		PoolSize:         g.PoolSize,
		PendingInstances: g.PendingInstances,
		CacheHitRatio:    g.CacheHitRatio,
		GPUSecondsTotal:  g.GPUSeconds,
	}
	if dur > 0 {
		row.ArrivalRPS = float64(c.arrivals) / dur
		row.ThroughputRPS = float64(c.completions) / dur
	}
	if c.arrivals > 0 {
		row.ShedRate = float64(c.rejects) / float64(c.arrivals)
	}
	if len(c.rejectsBy) > 0 {
		row.RejectsByReason = make(map[string]uint64, len(c.rejectsBy))
		//prefill:allow(simdeterminism): map copy with distinct keys; the JSON encoder sorts string keys on export
		for k, v := range c.rejectsBy {
			row.RejectsByReason[k] = v
		}
	}
	for i, class := range sched.Classes() {
		ca := &c.class[i]
		cw := ClassWindow{
			Class:       class.String(),
			Arrivals:    ca.arrivals,
			Completions: ca.completions,
			Rejects:     ca.rejects,
			SLOGood:     ca.good,
			Attainment:  1,
		}
		if ca.completions > 0 {
			cw.Attainment = float64(ca.good) / float64(ca.completions)
			snap := c.hists[i].Snapshot()
			cw.P50Seconds = snap.Quantile(0.50)
			cw.P90Seconds = snap.Quantile(0.90)
			cw.P99Seconds = snap.Quantile(0.99)
		}
		if partial {
			cw.RollingAttainment = c.roll[i].attainment(ca.good, ca.completions)
			cw.BurnRate = c.burnRate(cw.RollingAttainment)
		}
		row.Classes[i] = cw
	}
	return row
}

// --- ticker ---

// Attach binds the collector to a batch kernel. The boundary ticker is a
// sim.Observer, so no other loop sees its pending tick, and it parks
// whenever no other event is pending, so runs terminate (the ticker
// re-arms on the next Start). Wall-clock servers, whose kernels free-run
// at the speedup rate even when idle, must NOT attach a ticker — they
// close windows lazily via Advance instead.
func (c *Collector) Attach(clock *sim.Sim) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.clock = clock
	c.ticker = clock.NewObserver(collectorTick, c)
	c.mu.Unlock()
}

// collectorTick is the package-level observer callback (zero-alloc).
func collectorTick(arg any) { arg.(*Collector).tick() }

// Start arms the boundary ticker if a clock is attached and it is not
// already running. Safe to call on every arrival (mirrors the trace
// sampler's re-arm discipline).
func (c *Collector) Start() {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.clock == nil || c.running {
		return
	}
	c.running = true
	c.scheduleLocked(c.clock.Now())
}

// scheduleLocked arms the next boundary tick strictly after now.
func (c *Collector) scheduleLocked(now float64) {
	idx := c.idx
	for c.windowEnd(idx) <= now {
		idx++
	}
	c.ticker.At(c.windowEnd(idx))
}

func (c *Collector) tick() {
	c.mu.Lock()
	now := c.clock.Now()
	c.catchUp(now)
	if c.clock.Pending() == 0 {
		// The run has drained past this boundary; park until the next
		// burst's Start re-arms the ticker.
		c.running = false
		c.mu.Unlock()
		return
	}
	c.scheduleLocked(now)
	c.mu.Unlock()
}
