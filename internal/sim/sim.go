// Package sim is a minimal discrete-event simulation kernel: a virtual
// clock, an event heap, and deterministic random processes (Poisson
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
)

// Func is the fast-path event callback: a plain function pointer plus an
// opaque payload. Schedulers on the hot path pass a package-level function
// and a pointer payload so that neither the callback nor the argument
// allocates; the closure-based At/After entry points route through the
// same representation via a trampoline.
type Func func(arg any)

// Clock is the scheduling surface shared by the kernel (*Sim, whose own
// clock is the coordinator's) and its per-instance shards (*Shard).
// Engines, samplers and controllers program against Clock so the same
// code runs serially or sharded; only run construction picks the shard
// count. Pending is part of the surface because the autoscaler's and
// sampler's termination discipline ("reschedule only while other events
// remain") is clock behaviour, not kernel behaviour.
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
	// Pending returns the whole run's queued event count: on a sharded
	// kernel every clock reports it, matching what the serial kernel
	// would say.
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

// AtFunc schedules fn(arg) on the coordinator at absolute time t — the
// zero-alloc fast path: fn should be a package-level function (not a
// per-call closure) and arg a reusable pointer, so steady-state scheduling
// costs no heap allocations. Scheduling in the past (t < now) panics: it
// indicates a causality bug in the caller.
func (s *Sim) AtFunc(t float64, fn Func, arg any) {
	if t < s.now {
		panic("sim: event scheduled in the past")
	}
	if fn == nil {
		panic("sim: nil event callback")
	}
	s.seq++
	s.heap.push(event{time: t, seq: s.seq, fn: fn, arg: arg})
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

// Pending returns the whole run's queued event count: the coordinator
// heap, every shard heap, and any unmerged outbox entries — what a serial
// kernel running the same events would report, so the autoscaler's and
// sampler's drain discipline ("reschedule only while other events
// remain") is the same at any shard count.
func (s *Sim) Pending() int {
	n := s.heap.len()
	for _, sh := range s.shards {
		n += sh.heap.len() + len(sh.outbox)
	}
	return n
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
// heaps' backing arrays back toward minEventCap, so a kernel that served a
// deep burst does not pin its peak-depth arrays afterwards.
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

// run executes every event at or before the deadline. A serial kernel pops
// its one heap; a sharded kernel alternates coordinator events with
// conservative windows (see shard.go).
func (s *Sim) run(deadline float64) {
	if len(s.shards) == 0 {
		for s.heap.len() > 0 && s.heap.events[0].time <= deadline {
			e := s.heap.pop()
			s.now = e.time
			s.executed++
			e.fn(e.arg)
		}
		return
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
			e := s.heap.pop()
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

// ArrivalTimes returns the first n absolute arrival times starting at
// start.
func (p *Poisson) ArrivalTimes(start float64, n int) []float64 {
	out := make([]float64, n)
	t := start
	for i := range out {
		t += p.Next()
		out[i] = t
	}
	return out
}
