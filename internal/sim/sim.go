// Package sim is a minimal discrete-event simulation kernel: a virtual
// clock, an event queue, and deterministic random processes (Poisson
// arrivals) built on math/rand with explicit seeds.
//
// All engine and workload behaviour in this repository executes against
// this kernel, so every experiment is exactly reproducible — and every
// experiment's wall-clock cost is dominated by this kernel's hot loop.
// The event heap is therefore a value-based binary heap over an []event
// slice: scheduling an event appends into the backing array instead of
// heap-allocating a *event, and popping swaps values in place, so
// steady-state scheduling through the AtFunc/AfterFunc fast path performs
// zero heap allocations per event (pinned by TestSteadyStateSchedulingZeroAlloc).
// The backing array is bounded by the peak pending depth and shrinks when
// the queue drains, following the internal/ringbuf discipline.
//
// The coordinator queues its events in two places. The heap takes what
// runs schedule as they go: completions, ticks, faults. Beside it, an
// internal/ringbuf.Ring holds the events a caller schedules in time order
// through AtFuncInOrder, such as a run's pre-scheduled arrivals: an event
// no earlier than the ring's tail is appended in O(1), and any other goes
// to the heap. Both hold their events in (time, seq) order, and every
// event takes the next seq whichever queue holds it, so taking the earlier
// of the heap's top and the ring's head by (time, seq) executes exactly
// the order one heap would. A fleet run's tens of thousands of arrivals
// then wait in the ring, and each completion sifts through a heap of the
// few events in flight instead of one as deep as the arrival list.
//
// The package has one kernel type, Sim. Its zero value is the serial
// kernel; NewSharded (see shard.go) adds shard clocks that partition
// instance-local events across per-shard workers under conservative time
// windows, for parallelism within a single fleet-scale run. Code that
// only schedules and reads the clock accepts the Clock interface, so it
// runs unchanged on the kernel or on one of its shards.
package sim

import (
	"math"
	"math/rand"
	"sync"

	"repro/internal/ringbuf"
)

// Func is the fast-path event callback: a plain function pointer plus an
// opaque payload. Schedulers on the hot path pass a package-level function
// and a pointer payload so that neither the callback nor the argument
// allocates; the closure-based At/After entry points route through the
// same representation via a trampoline.
type Func func(arg any)

// Clock is the scheduling surface shared by the kernel (*Sim, whose own
// clock is the coordinator's) and its per-instance shards (*Shard).
// Engines, controllers and fault streams program against Clock so the same
// code runs serially or sharded; only run construction picks the shard
// count. Pending is part of the surface because the autoscaler's and
// fault streams' termination discipline ("reschedule only while other
// events remain") is clock behaviour, not kernel behaviour.
type Clock interface {
	// Now returns the current simulated time in seconds.
	Now() float64
	// AtFunc schedules fn(arg) at absolute time t (zero-alloc fast path).
	AtFunc(t float64, fn Func, arg any)
	// AfterFunc schedules fn(arg) d seconds from now (fast path).
	AfterFunc(d float64, fn Func, arg any)
	// At schedules a closure at absolute time t.
	At(t float64, fn func())
	// After schedules a closure d seconds from now.
	After(d float64, fn func())
	// Pending returns the whole run's queued event count, observer ticks
	// left out (see Observer): on a sharded kernel every clock reports
	// it, matching what the serial kernel would say.
	Pending() int
}

// event is one scheduled callback, stored by value in the heap slice.
type event struct {
	time float64
	seq  uint64 // FIFO tie-break for simultaneous events
	fn   Func
	arg  any
}

// minEventCap is the smallest backing array kept once the heap has
// allocated (same floor as internal/ringbuf).
const minEventCap = 8

// eventHeap is the value-based min-heap ordered by (time, seq): the
// kernel's coordinator owns one, and every shard owns one. Methods never
// allocate beyond the backing array's amortized growth.
type eventHeap struct {
	events []event
	peak   int // the most events held at once
}

// less orders the heap by (time, seq): earliest first, FIFO on ties.
func (h *eventHeap) less(i, j int) bool {
	a, b := &h.events[i], &h.events[j]
	if a.time != b.time {
		return a.time < b.time
	}
	return a.seq < b.seq
}

// push appends an event and restores the heap invariant. Within the
// backing array's capacity this performs no allocation.
func (h *eventHeap) push(e event) {
	h.events = append(h.events, e)
	i := len(h.events) - 1
	if i >= h.peak {
		h.peak = i + 1
	}
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		h.events[i], h.events[parent] = h.events[parent], h.events[i]
		i = parent
	}
}

// pop removes and returns the earliest event. The vacated tail slot is
// zeroed so the callback and payload do not linger reachable through the
// backing array, and the array halves once the pending depth drains below
// a quarter of it (ringbuf discipline: capacity tracks peak depth, not
// history).
func (h *eventHeap) pop() event {
	e := h.events[0]
	n := len(h.events) - 1
	h.events[0] = h.events[n]
	h.events[n] = event{}
	h.events = h.events[:n]
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		m := l
		if r := l + 1; r < n && h.less(r, l) {
			m = r
		}
		if !h.less(m, i) {
			break
		}
		h.events[i], h.events[m] = h.events[m], h.events[i]
		i = m
	}
	if c := cap(h.events); c > minEventCap && n <= c/4 {
		half := c / 2
		if half < minEventCap {
			half = minEventCap
		}
		next := make([]event, n, half)
		copy(next, h.events)
		h.events = next
	}
	return e
}

// len returns the pending depth.
func (h *eventHeap) len() int { return len(h.events) }

// minTime returns the earliest pending event time, or +Inf when empty.
func (h *eventHeap) minTime() float64 {
	if len(h.events) == 0 {
		return math.Inf(1)
	}
	return h.events[0].time
}

// Sim is the discrete-event kernel. The zero value is the serial kernel,
// ready to use: one heap, events executed in (time, seq) order.
// NewSharded builds one that also partitions instance-local events across
// shard clocks under conservative time windows (see shard.go); Run and
// RunUntil drive either. Sim is not goroutine-safe: each simulation owns
// one, and parallel experiment cells each run their own.
type Sim struct {
	now      float64
	seq      uint64
	executed uint64
	heap     eventHeap // the coordinator's events, ordered by (time, seq)
	// ring holds the coordinator's events that AtFuncInOrder appended, in
	// (time, seq) order.
	ring ringbuf.Ring[event]
	// observing counts the queued observer ticks, which Pending leaves out.
	observing int

	// The sharded kernel's state (see shard.go); empty on a serial kernel.
	lookahead float64
	shards    []*Shard
	barriers  []func()
	active    []*Shard // per-window scratch, reused
	running   bool

	// self-profile (see stats.go): plain counters and fixed arrays, so
	// profiling never allocates and never perturbs event order.
	windows    uint64
	boundCoord uint64
	boundLook  uint64
	widthHist  [NumWidthBuckets]uint64
	stallHist  [NumStallBuckets]uint64

	windowWG sync.WaitGroup
	workerWG sync.WaitGroup
}

// Sim implements Clock: its own clock is the coordinator's.
var _ Clock = (*Sim)(nil)

// Now returns the coordinator's current simulated time in seconds.
func (s *Sim) Now() float64 { return s.now }

// Executed returns the number of events the kernel has run, the
// coordinator's plus every shard's — the observability layer's
// sim_events_total counter. Each count is a plain field: the strict phase
// alternation (the coordinator runs only while shards are parked, and
// Executed is called from coordinator context or between runs) makes the
// merge exact without atomics.
func (s *Sim) Executed() uint64 {
	total := s.executed
	for _, sh := range s.shards {
		total += sh.executed
	}
	return total
}

// checkEvent panics on an event no run can execute in order: one in the
// past (t < now, a causality bug in the caller), one at NaN (which
// compares false with every time, so it would scramble the queue's order)
// or +Inf (which never comes due, yet counts as pending forever), or one
// without a callback.
func checkEvent(now, t float64, fn Func) {
	if t < now {
		panic("sim: event scheduled in the past")
	}
	if !(t <= math.MaxFloat64) {
		panic("sim: event scheduled at a non-finite time")
	}
	if fn == nil {
		panic("sim: nil event callback")
	}
}

// AtFunc schedules fn(arg) on the coordinator at absolute time t — the
// zero-alloc fast path: fn should be a package-level function (not a
// per-call closure) and arg a reusable pointer, so steady-state scheduling
// costs no heap allocations. Scheduling in the past (t < now) or at a
// non-finite time panics: either indicates a bug in the caller.
func (s *Sim) AtFunc(t float64, fn Func, arg any) {
	checkEvent(s.now, t, fn)
	s.seq++
	s.heap.push(event{time: t, seq: s.seq, fn: fn, arg: arg})
}

// AtFuncInOrder schedules fn(arg) on the coordinator at absolute time t,
// exactly as AtFunc does, for a caller that schedules its events in time
// order, such as a run's pre-scheduled arrivals. An event no earlier than
// the last one this path still holds is appended to the coordinator's
// ring in O(1), without deepening the heap; any other goes to the heap.
// It takes the same seq AtFunc would, so execution order does not depend
// on the path. Only coordinator context may call it, and it panics as
// AtFunc does.
func (s *Sim) AtFuncInOrder(t float64, fn Func, arg any) {
	checkEvent(s.now, t, fn)
	s.seq++
	e := event{time: t, seq: s.seq, fn: fn, arg: arg}
	if n := s.ring.Len(); n > 0 && t < s.ring.At(n-1).time {
		s.heap.push(e)
		return
	}
	s.ring.PushBack(e)
}

// AfterFunc schedules fn(arg) d seconds from now (fast path).
func (s *Sim) AfterFunc(d float64, fn Func, arg any) {
	s.AtFunc(s.now+d, fn, arg)
}

// runClosure is the trampoline that adapts the closure entry points onto
// the fast path: the closure itself rides in the event's payload slot.
func runClosure(arg any) { arg.(func())() }

// At schedules fn to run at absolute time t. The closure is the payload
// (func values are pointer-shaped, so boxing it allocates nothing beyond
// the closure the caller already built). Scheduling in the past panics.
func (s *Sim) At(t float64, fn func()) {
	s.AtFunc(t, runClosure, fn)
}

// After schedules fn to run d seconds from now.
func (s *Sim) After(d float64, fn func()) {
	s.AtFunc(s.now+d, runClosure, fn)
}

// Pending returns the whole run's queued event count: the coordinator's
// heap and ring, every shard heap, and any unmerged outbox entries — what
// a serial kernel running the same events would report, so the drain
// discipline of periodic loops ("reschedule only while other events
// remain") is the same at any shard count. Observer ticks are left out: a
// loop that parks when nothing else is pending must not see them, or two
// such loops keep each other alive and a batch run never drains.
func (s *Sim) Pending() int {
	n := s.heap.len() + s.ring.Len() - s.observing
	for _, sh := range s.shards {
		n += sh.heap.len() + len(sh.outbox)
	}
	return n
}

// Observer is the tick of a periodic loop that only watches the run, such
// as a trace gauge sampler or a time-series boundary ticker. Its ticks are
// coordinator events that Pending leaves out, so the loops that park when
// no other event is pending (the autoscaler, fault streams without a
// horizon, and observers themselves) neither see it nor are kept alive by
// it: a run drains, and schedules every other event alike, with observers
// on or off. Only coordinator context may schedule an observer tick.
type Observer struct {
	s   *Sim
	fn  Func
	arg any
}

// NewObserver returns an observer whose ticks run fn(arg). Scheduling a
// tick allocates nothing: fn should be a package-level function and arg a
// long-lived pointer, as for AtFunc.
func (s *Sim) NewObserver(fn Func, arg any) *Observer {
	return &Observer{s: s, fn: fn, arg: arg}
}

// At schedules the observer's next tick at absolute time t.
func (o *Observer) At(t float64) {
	o.s.AtFunc(t, observerTick, o)
	o.s.observing++
}

// observerTick runs an observer's tick once its event leaves the queue.
func observerTick(arg any) {
	o := arg.(*Observer)
	o.s.observing--
	o.fn(o.arg)
}

// NextTime returns the time of the earliest pending event on any clock,
// the coordinator's or a shard's, or +Inf when none is pending: how long a
// caller stepping the kernel with RunUntil may sleep. Call it between
// runs, never from an event.
func (s *Sim) NextTime() float64 {
	cmin, smin := s.nextTimes()
	return min(cmin, smin)
}

// Run executes events until none remain and returns the final simulated
// time, the time of the last event on any clock. Draining shrinks the
// heaps' and the ring's backing arrays back toward minEventCap, so a
// kernel that served a deep burst does not pin its peak-depth arrays
// afterwards.
func (s *Sim) Run() float64 {
	s.run(math.Inf(1))
	return s.now
}

// RunUntil executes every event at or before the deadline, leaves later
// events queued, and advances the clock to the deadline: the wall-clock
// server's stepping primitive.
func (s *Sim) RunUntil(deadline float64) {
	s.run(deadline)
	if s.now < deadline {
		s.now = deadline
	}
}

// ringFirst reports whether the coordinator's earliest event by
// (time, seq) is the ring's head rather than the heap's top. The ring must
// hold an event; callers test that inline, so the heap-only path pays no
// call.
func (s *Sim) ringFirst() bool {
	r := s.ring.At(0)
	if len(s.heap.events) == 0 {
		return true
	}
	h := &s.heap.events[0]
	return r.time < h.time || (r.time == h.time && r.seq < h.seq)
}

// coordMinTime returns the earliest coordinator event time, or +Inf when
// none is pending.
func (s *Sim) coordMinTime() float64 {
	t := s.heap.minTime()
	if s.ring.Len() > 0 {
		t = min(t, s.ring.At(0).time)
	}
	return t
}

// popCoord removes and returns the coordinator's earliest event by
// (time, seq), the ring's head or the heap's top. One must be queued.
func (s *Sim) popCoord() event {
	if s.ring.Len() > 0 && s.ringFirst() {
		e, _ := s.ring.PopFront()
		return e
	}
	return s.heap.pop()
}

// run executes every event at or before the deadline. A serial kernel
// takes the coordinator's events in (time, seq) order; a sharded kernel
// alternates them with conservative windows (see shard.go).
func (s *Sim) run(deadline float64) {
	if len(s.shards) == 0 {
		// popCoord, inlined with the deadline test: this is the hot loop.
		for {
			var e event
			if s.ring.Len() > 0 && s.ringFirst() {
				if s.ring.At(0).time > deadline {
					return
				}
				e, _ = s.ring.PopFront()
			} else if len(s.heap.events) > 0 && s.heap.events[0].time <= deadline {
				e = s.heap.pop()
			} else {
				return
			}
			s.now = e.time
			s.executed++
			e.fn(e.arg)
		}
	}
	if s.running {
		panic("sim: Run is not reentrant")
	}
	s.running = true
	defer func() { s.running = false }()
	if len(s.shards) > 1 {
		s.startWorkers()
		defer s.stopWorkers()
	}

	// Windows drain strictly below their bound, so the limit sits just
	// above the deadline: a window clamped there includes events at it.
	limit := math.Nextafter(deadline, math.Inf(1))
	for {
		cmin, smin := s.nextTimes()
		if cmin >= limit && smin >= limit {
			break
		}
		if cmin <= smin {
			// Coordinator phase: shards are parked, shared state is safe.
			e := s.popCoord()
			s.now = e.time
			s.executed++
			e.fn(e.arg)
			continue
		}
		s.window(smin, min(cmin, limit))
	}

	// The last event anywhere, as a serial kernel reports it.
	for _, sh := range s.shards {
		if sh.now > s.now {
			s.now = sh.now
		}
	}
}

// Poisson generates exponential inter-arrival gaps for a Poisson process
// with the given rate (events/second), using a dedicated deterministic
// stream.
type Poisson struct {
	rate float64
	rng  *rand.Rand
}

// NewPoisson constructs a Poisson arrival process. Rate must be positive.
func NewPoisson(rate float64, seed int64) *Poisson {
	if rate <= 0 {
		panic("sim: Poisson rate must be positive")
	}
	return &Poisson{rate: rate, rng: rand.New(rand.NewSource(seed))}
}

// Next returns the next inter-arrival gap in seconds.
func (p *Poisson) Next() float64 {
	// Inverse-CDF sampling; guard against log(0).
	u := p.rng.Float64()
	if u >= 1 {
		u = math.Nextafter(1, 0)
	}
	return -math.Log(1-u) / p.rate
}
