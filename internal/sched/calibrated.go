package sched

import "fmt"

// --- SRJF (static) ---

// SRJF is shortest-remaining-job-first with the JCT estimated once, at
// arrival (§6.2's "traditional JCT-based scheduling"). It fails to react
// when prefix caches appear or are evicted after enqueue. The queue is a
// min-heap on the frozen JCT, ties broken by enqueue order.
type SRJF struct {
	jct JCTFunc
	h   entryHeap
	seq uint64
}

// NewSRJF returns an SRJF scheduler that freezes each request's JCT at
// enqueue time using the supplied estimator.
func NewSRJF(jct JCTFunc) *SRJF {
	if jct == nil {
		panic("sched: SRJF requires a JCT function")
	}
	return &SRJF{jct: jct}
}

// Name implements Scheduler.
func (s *SRJF) Name() string { return "srjf" }

// Enqueue implements Scheduler.
func (s *SRJF) Enqueue(r *Request) {
	s.h.push(&entry{r: r, key: s.jct(r), seq: s.seq})
	s.seq++
}

// Len implements Scheduler.
func (s *SRJF) Len() int { return s.h.len() }

// Next implements Scheduler.
func (s *SRJF) Next(now float64) *Request {
	e := s.h.popMin()
	if e == nil {
		return nil
	}
	// The key is the frozen arrival-time JCT; stamp it for observability.
	e.r.EstimatedSeconds = e.key
	return e.r
}

// --- SRJF with continuous JCT calibration (Algorithm 1) ---

// Calibrated is PrefillOnly's scheduler (Algorithm 1): every scheduling
// decision runs the waiting request with the minimum calibrated score
//
//	score(r, now) = jct(r) − λ/1000·(now − r.ArrivalTime),
//
// where jct consults the live prefix cache and λ·T_queue is a queueing-
// time fairness credit.
//
// Instead of sweeping the whole queue every decision, Calibrated keeps an
// indexed min-heap on the time-invariant key
//
//	key(r) = w(r.Class)·jct(r) + λ/1000·r.ArrivalTime,
//
// which differs from score(r, now) only by the term −λ/1000·now shared by
// every waiting request, so the heap order equals the score order at any
// instant. w is the per-class SLO weight (default 1 for every class, the
// class-blind paper policy): a class with weight w pays w seconds of
// effective JCT per real second, so batch work with w > 1 yields to
// interactive work whenever their weighted costs cross. The weight scales
// only the jct term — it is fixed per class at SetClassWeights time, so
// the key stays time-invariant and the incremental-rekey invariant below
// is unchanged. jct depends on the prefix cache, so keys change only when cache
// contents change: wire SetWatch and feed the cache's membership changes
// to OnCacheChange (kvcache.Manager.Subscribe), and only requests watching
// a changed block are rekeyed — O(log n) per dispatch plus O(affected)
// rekeys, instead of O(queue × blocks). Without that wiring, Calibrated
// remains correct by recomputing every key before each decision (the
// reference sweep's cost).
//
// Requests whose ArrivalTime lies in the future are ordered with their
// λ·arrival credit already applied (the score formula clamps T_queue at
// zero instead); engines never enqueue future arrivals.
type Calibrated struct {
	jct JCTFunc
	// lambda is the fairness parameter, in milliseconds of JCT credit
	// per second of queueing (see DESIGN.md §5 for the unit convention;
	// the paper's default is 500). It is fixed at construction because it
	// is baked into each waiting request's key.
	lambda float64

	// weights holds the per-class JCT multipliers; all 1 (class-blind)
	// until SetClassWeights. Fixed before the first enqueue because each
	// waiting request's weight is baked into its key.
	weights [NumClasses]float64

	watch func(*Request) Watch
	h     entryHeap
	seq   uint64
	idx   hashIndex
	epoch uint64 // OnCacheChange calls so far; dedupes rekeys per call
	// affected collects one OnCacheChange call's entries to rekey, so the
	// index is not modified while its waiter lists are ranged over. It
	// is cleared after each call and keeps only its capacity.
	affected []*entry
}

// Watch is the set of block hashes whose entry into or eviction from the
// prefix cache can change a waiting request's JCT (see SetWatch). A 0
// slot is unused: block hashes are never 0.
type Watch [2]uint64

// uniformWeights is the class-blind default: every class weighs 1.
func uniformWeights() [NumClasses]float64 {
	var w [NumClasses]float64
	for i := range w {
		w[i] = 1
	}
	return w
}

// classWeight looks a request's class weight up, treating out-of-range
// classes as weight 1.
func classWeight(w [NumClasses]float64, c Class) float64 {
	if int(c) >= len(w) {
		return 1
	}
	return w[c]
}

// setClassWeights validates and copies per-class weights into dst — the
// one implementation shared by the heap scheduler and its sweep oracle,
// so their weight semantics cannot drift apart. waiting guards the
// baked-into-keys invariant: weights are immutable once requests wait.
func setClassWeights(dst *[NumClasses]float64, w map[Class]float64, waiting int) {
	if waiting > 0 {
		panic("sched: SetClassWeights with requests already waiting")
	}
	//prefill:allow(simdeterminism): each class writes its own array slot; iteration order cannot change the result
	for cl, wt := range w {
		if wt <= 0 {
			panic(fmt.Sprintf("sched: class weight for %s must be positive, got %g", cl, wt))
		}
		if int(cl) < len(dst) {
			dst[cl] = wt
		}
	}
}

// NewCalibrated returns the calibrated scheduler. jct is evaluated at
// enqueue and whenever a cache change invalidates a request's key.
func NewCalibrated(jct JCTFunc, lambda float64) *Calibrated {
	if jct == nil {
		panic("sched: Calibrated requires a JCT function")
	}
	return &Calibrated{jct: jct, lambda: lambda, weights: uniformWeights()}
}

// SetClassWeights sets the per-class JCT multipliers of the heap key
// (weights at missing keys stay 1, the class-blind default). Weights must
// be positive and, like λ, are baked into every waiting request's key, so
// they must be set before any request is enqueued.
func (c *Calibrated) SetClassWeights(w map[Class]float64) {
	setClassWeights(&c.weights, w, c.h.len())
}

// Name implements Scheduler.
func (c *Calibrated) Name() string {
	return fmt.Sprintf("srjf-calibrated(λ=%g)", c.lambda)
}

// SetWatch enables incremental rekeying. watch(r) must return, for the
// cache as it is when called, the block hashes whose insertion or eviction
// can change jct(r); Calibrated indexes each waiting request under them
// and calls watch again whenever a change to one of them rekeys the
// request, so the set may move as the cache does.
//
// A JCT function that depends only on the request's cached prefix — a
// blocks of its hash chain, at the block size of the cache it consults —
// needs only the chain's frontier {chain[a-1], chain[a]}: the cache is
// prefix-closed (kvcache.Manager.PeekH), so a grows only when chain[a] is
// inserted and shrinks only when chain[a-1] is evicted.
// engine.AttachIncremental wires that frontier. It must be set before any
// request is enqueued.
func (c *Calibrated) SetWatch(watch func(*Request) Watch) {
	if c.h.len() > 0 {
		panic("sched: SetWatch with requests already waiting")
	}
	c.watch = watch
}

// Enqueue implements Scheduler.
func (c *Calibrated) Enqueue(r *Request) {
	e := &entry{r: r, key: c.key(r), seq: c.seq}
	c.seq++
	if c.watch != nil {
		e.watch = c.watch(r)
		c.idx.add(e)
	}
	c.h.push(e)
}

// Len implements Scheduler.
func (c *Calibrated) Len() int { return c.h.len() }

// key returns the time-invariant heap key of a request.
func (c *Calibrated) key(r *Request) float64 {
	return classWeight(c.weights, r.Class)*c.jct(r) + c.lambda/1000*r.ArrivalTime
}

// Score returns the Algorithm-1 score of a request at time now:
// w(class)·jct(n_input, n_cached) − λ·T_queue. Exported for tests and
// diagnostics. Note Score clamps T_queue at zero while the dispatch order
// uses the unclamped key, so for a request whose ArrivalTime lies in the
// future (never produced by engines) Score does not predict dispatch
// order.
func (c *Calibrated) Score(r *Request, now float64) float64 {
	queue := now - r.ArrivalTime
	if queue < 0 {
		queue = 0
	}
	return classWeight(c.weights, r.Class)*c.jct(r) - c.lambda/1000*queue
}

// Next implements Scheduler: the minimum-key request wins.
func (c *Calibrated) Next(now float64) *Request {
	if c.watch == nil {
		// No cache-event feed: every key may be stale, recalibrate all.
		for _, e := range c.h.items {
			e.key = c.key(e.r)
		}
		c.h.reinit()
	}
	e := c.h.popMin()
	if e == nil {
		return nil
	}
	c.idx.remove(e)
	e.r.EstimatedSeconds = c.estimateOf(e)
	return e.r
}

// estimateOf recovers the calibrated JCT estimate from an entry's
// time-invariant key (key = w·jct + λ/1000·arrival), so dispatch does not
// re-run the cost model just to stamp the estimate.
func (c *Calibrated) estimateOf(e *entry) float64 {
	return (e.key - c.lambda/1000*e.r.ArrivalTime) / classWeight(c.weights, e.r.Class)
}

// OnCacheChange rekeys the waiting requests watching any of the inserted
// or evicted blocks and re-indexes each under its new watch set. Wire it
// to the owning cache's change feed (kvcache.Manager.Subscribe). It first
// collects the affected requests, each once per call (the epoch stamp
// marks the ones already collected), and only then rekeys them, so it
// never modifies a waiter list while ranging over it. Rekey order only
// permutes the heap's internal array; pop order is a strict total order on
// (key, len desc, seq), so dispatch does not depend on it — pinned by the
// sweep-oracle property test.
func (c *Calibrated) OnCacheChange(inserted, evicted []uint64) {
	if c.watch == nil {
		return
	}
	c.epoch++
	affected := c.affected
	for _, hs := range [2][]uint64{inserted, evicted} {
		for _, h := range hs {
			for _, w := range c.idx.waiting(h) {
				if w.e.epoch != c.epoch {
					w.e.epoch = c.epoch
					affected = append(affected, w.e)
				}
			}
		}
	}
	for _, e := range affected {
		e.key = c.key(e.r)
		c.h.fix(e)
		if watch := c.watch(e.r); watch != e.watch {
			c.idx.remove(e)
			e.watch = watch
			c.idx.add(e)
		}
	}
	clear(affected)
	c.affected = affected[:0]
}

// --- reference sweep (equivalence oracle) ---

// CalibratedSweep is the original O(queue × blocks) implementation of
// Algorithm 1, kept as the reference oracle for Calibrated's equivalence
// tests: every decision recomputes key(r) = w(class)·jct(r) +
// λ/1000·ArrivalTime for every waiting request and pops the minimum,
// breaking ties by enqueue order exactly as Calibrated does.
type CalibratedSweep struct {
	jct     JCTFunc
	lambda  float64
	weights [NumClasses]float64
	q       []*entry
	seq     uint64
}

// NewCalibratedSweep returns the reference sweep scheduler.
func NewCalibratedSweep(jct JCTFunc, lambda float64) *CalibratedSweep {
	if jct == nil {
		panic("sched: CalibratedSweep requires a JCT function")
	}
	return &CalibratedSweep{jct: jct, lambda: lambda, weights: uniformWeights()}
}

// SetClassWeights mirrors Calibrated.SetClassWeights on the reference
// sweep (shared implementation, so oracle and production semantics
// cannot drift).
func (c *CalibratedSweep) SetClassWeights(w map[Class]float64) {
	setClassWeights(&c.weights, w, len(c.q))
}

// Name implements Scheduler.
func (c *CalibratedSweep) Name() string {
	return fmt.Sprintf("srjf-calibrated-sweep(λ=%g)", c.lambda)
}

// Enqueue implements Scheduler.
func (c *CalibratedSweep) Enqueue(r *Request) {
	c.q = append(c.q, &entry{r: r, seq: c.seq})
	c.seq++
}

// Len implements Scheduler.
func (c *CalibratedSweep) Len() int { return len(c.q) }

// Next implements Scheduler: one full calibration sweep, then the minimum
// entry (key, then longer request, then enqueue order) wins.
func (c *CalibratedSweep) Next(now float64) *Request {
	best := -1
	for i, e := range c.q {
		e.key = classWeight(c.weights, e.r.Class)*c.jct(e.r) + c.lambda/1000*e.r.ArrivalTime
		if best < 0 || entryLess(e, c.q[best]) {
			best = i
		}
	}
	if best < 0 {
		return nil
	}
	e := c.q[best]
	c.q[best] = c.q[len(c.q)-1]
	c.q[len(c.q)-1] = nil
	c.q = c.q[:len(c.q)-1]
	// Mirror Calibrated's estimate stamping so the oracle stays
	// behaviorally identical.
	e.r.EstimatedSeconds = (e.key - c.lambda/1000*e.r.ArrivalTime) / classWeight(c.weights, e.r.Class)
	return e.r
}
