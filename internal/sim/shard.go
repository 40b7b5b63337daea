package sim

import (
	"fmt"
	"math"
	"time"
)

// NewSharded builds a kernel that executes one simulation across the
// given number of event shards plus a coordinator, using conservative
// time windows (classic conservative parallel discrete-event simulation).
// The intended partition:
//
//   - Shard events touch exactly one instance: engine pass completions,
//     per-instance queue dispatch, pipeline stage handoffs. Each shard owns
//     its instances' events outright and a per-shard worker drains them.
//   - Coordinator events touch shared state: request arrivals, router
//     decisions, admission, autoscale ticks and cold starts. They execute
//     serially on the coordinator goroutine, exactly like the serial
//     kernel.
//
// A run alternates two phases. While the earliest pending event is a
// coordinator event, coordinator events execute one at a time (shards are
// parked, so the coordinator may freely read engine state and schedule
// onto shard clocks — this is how router dispatch submits to engines).
// Otherwise the coordinator opens a window
//
//	bound = min(next coordinator event, earliest shard event + lookahead)
//
// and every shard executes its own events with time < bound in parallel.
// No shard blocks on another inside a window: lookahead guarantees nothing
// scheduled during the window can land before the bound. Cross-shard sends
// go through Shard.Post, which enforces t >= now + lookahead (panicking on
// violation — a causality bug, the sharded analogue of scheduling in the
// past) and buffers the event in a per-shard outbox. At the window barrier
// the outboxes merge into the coordinator heap in deterministic
// (time, shard, emission) order, then OnBarrier hooks run (e.g. the engine
// layer's completion merge) before the next coordinator event. RunUntil
// also clamps windows at its deadline.
//
// Determinism: each shard's events execute in exactly the serial kernel's
// (time, seq) order because a shard's events are totally ordered by its
// own heap regardless of window boundaries. Cross-shard effects are merged
// at barriers in time order, which matches the serial execution order
// whenever event times differ; simultaneous events on *different* shards
// have no serial-observable ordering in this codebase's workloads (float64
// event times collide only by construction, not by arithmetic), so the
// oracle tests require byte-identical results against the serial kernel.
//
// Construction, scheduling between runs, and the runs themselves happen on
// one goroutine; during a run each shard's clock may be used only by the
// coordinator phase or that shard's own events. Workers are spawned per
// Run or RunUntil call and joined before it returns, so an idle kernel
// holds no goroutines.
//
// Lookahead must be positive and finite: it is the minimum cross-shard
// latency the workload guarantees (for serving runs, derive it from the
// catalogs' minimum priced pass time — see engine.MinEventSeconds), and it
// bounds window sizes, so it trades synchronization frequency against
// nothing else: correctness is enforced by Shard.Post, not by the window
// size.
func NewSharded(shards int, lookahead float64) *Sim {
	if shards < 1 {
		panic(fmt.Sprintf("sim: shard count must be >= 1, got %d", shards))
	}
	if !(lookahead > 0) || math.IsInf(lookahead, 1) {
		panic(fmt.Sprintf("sim: lookahead must be positive and finite, got %v", lookahead))
	}
	s := &Sim{lookahead: lookahead}
	s.shards = make([]*Shard, shards)
	for i := range s.shards {
		s.shards[i] = &Shard{parent: s, id: i}
	}
	return s
}

// Shards returns the shard count (0 for the serial kernel).
func (s *Sim) Shards() int { return len(s.shards) }

// Shard returns shard i's clock. Instances are typically assigned
// round-robin: instance k schedules on Shard(k % Shards()).
func (s *Sim) Shard(i int) *Shard { return s.shards[i] }

// OnBarrier registers a hook that runs after every window barrier (outbox
// merge included) and before the next coordinator event, while all shards
// are parked. The engine layer uses it to apply per-shard completion
// buffers to shared state (router accounting, record order) in
// deterministic time order. Hooks run in registration order; a serial
// kernel has no windows, so they never run there.
func (s *Sim) OnBarrier(fn func()) {
	if fn == nil {
		panic("sim: nil barrier hook")
	}
	s.barriers = append(s.barriers, fn)
}

// nextTimes returns the earliest pending coordinator and shard event
// times (+Inf when none). Posts issued outside a window (setup or
// coordinator context) merge into the coordinator heap first, so they can
// never be stranded.
func (s *Sim) nextTimes() (cmin, smin float64) {
	smin = math.Inf(1)
	for _, sh := range s.shards {
		if len(sh.outbox) > 0 {
			s.mergeOutboxes()
		}
		if t := sh.heap.minTime(); t < smin {
			smin = t
		}
	}
	return s.heap.minTime(), smin
}

// window runs every shard's events in [smin, bound), bound = min(stop,
// smin + lookahead), where stop is the next coordinator event or the
// run's limit; then it merges the outboxes and runs the barrier hooks.
func (s *Sim) window(smin, stop float64) {
	bound := smin + s.lookahead
	if stop < bound {
		bound = stop
		s.boundCoord++
	} else {
		s.boundLook++
	}
	s.windows++
	s.widthHist[widthBucket((bound-smin)/s.lookahead)]++
	s.active = s.active[:0]
	for _, sh := range s.shards {
		if sh.heap.minTime() < bound {
			s.active = append(s.active, sh)
			sh.windows++
		}
	}
	if len(s.active) == 1 {
		// A single active shard (always, on a 1-shard kernel) runs inline
		// on the coordinator goroutine: same semantics, no handoff cost,
		// and by definition no barrier stall.
		s.active[0].runTimedWindow(bound)
	} else {
		// The coordinator signals the other active shards, runs the
		// first one itself, then waits at the barrier. Channel send /
		// WaitGroup wait establish the happens-before edges in both
		// directions, so shard state needs no atomics.
		//prefill:allow(simdeterminism): barrier-stall profiling; wall time is observed, never fed back into event order
		start := time.Now()
		s.windowWG.Add(len(s.active) - 1)
		for _, sh := range s.active[1:] {
			sh.work <- bound
		}
		s.active[0].runTimedWindow(bound)
		s.windowWG.Wait()
		// Per-shard stall: the window's wall duration minus the time the
		// shard itself was busy — how long it sat idle waiting for the
		// slowest shard. lastBusy is safe to read here: the barrier's
		// WaitGroup established the happens-before edge.
		//prefill:allow(simdeterminism): barrier-stall profiling; wall time is observed, never fed back into event order
		wall := uint64(time.Since(start))
		for _, sh := range s.active {
			var stall uint64
			if sh.lastBusy < wall {
				stall = wall - sh.lastBusy
			}
			sh.stallNanos += stall
			s.stallHist[stallBucket(stall)]++
		}
	}

	s.mergeOutboxes()
	for _, fn := range s.barriers {
		fn()
	}
}

// mergeOutboxes moves every shard's cross-shard sends into the coordinator
// heap. Entries are pushed in (shard id, emission) order with fresh
// coordinator seqs, so the heap's (time, seq) order executes them by
// (time, shard, emission) — deterministic regardless of how the window's
// parallel execution interleaved. Outbox capacity is retained (completion
// of the ringbuf discipline happens via the heap's own shrink on pop).
func (s *Sim) mergeOutboxes() {
	for _, sh := range s.shards {
		for _, o := range sh.outbox {
			if o.time < s.now {
				panic("sim: outbox event merged into the past")
			}
			s.seq++
			s.heap.push(event{time: o.time, seq: s.seq, fn: o.fn, arg: o.arg})
		}
		for i := range sh.outbox {
			sh.outbox[i] = outboxEntry{}
		}
		sh.outbox = sh.outbox[:0]
	}
}

func (s *Sim) startWorkers() {
	for _, sh := range s.shards {
		sh.work = make(chan float64, 1)
		s.workerWG.Add(1)
		go func(sh *Shard) {
			defer s.workerWG.Done()
			for bound := range sh.work {
				sh.runTimedWindow(bound)
				s.windowWG.Done()
			}
		}(sh)
	}
}

func (s *Sim) stopWorkers() {
	for _, sh := range s.shards {
		close(sh.work)
	}
	s.workerWG.Wait()
	for _, sh := range s.shards {
		sh.work = nil
	}
}

// outboxEntry is one buffered cross-shard send.
type outboxEntry struct {
	time float64
	fn   Func
	arg  any
}

// Shard is one shard's clock: a private (time, seq) heap drained by the
// shard's worker during windows. It implements Clock, so an engine built
// against sim.Clock runs on a shard unmodified. All scheduling calls must
// come from the coordinator phase (e.g. router dispatch submitting to an
// engine) or from this shard's own events — never from another shard;
// cross-shard communication goes through Post.
type Shard struct {
	parent   *Sim
	id       int
	now      float64
	seq      uint64
	executed uint64
	heap     eventHeap
	outbox   []outboxEntry
	work     chan float64

	// self-profile (see stats.go). lastBusy is the most recent window's
	// wall duration, written by the shard's executor and read by the
	// coordinator after the barrier (WaitGroup edges order both).
	windows    uint64
	busyNanos  uint64
	stallNanos uint64
	lastBusy   uint64
}

var _ Clock = (*Shard)(nil)

// Now returns the shard's current time: its own clock or the
// coordinator's, whichever is ahead. The coordinator's clock leads when a
// coordinator event (a router dispatch) schedules onto a shard that has
// been idle; the shard's own clock leads inside a window, where the
// coordinator is parked at the window's opening time.
func (sh *Shard) Now() float64 {
	if sh.now > sh.parent.now {
		return sh.now
	}
	return sh.parent.now
}

// Executed returns the events this shard has run.
func (sh *Shard) Executed() uint64 { return sh.executed }

// AtFunc schedules a shard-local event at absolute time t (zero-alloc
// fast path). Scheduling in the past panics.
func (sh *Shard) AtFunc(t float64, fn Func, arg any) {
	if t < sh.Now() {
		panic("sim: event scheduled in the past")
	}
	if fn == nil {
		panic("sim: nil event callback")
	}
	sh.seq++
	sh.heap.push(event{time: t, seq: sh.seq, fn: fn, arg: arg})
}

// AfterFunc schedules a shard-local event d seconds from now (fast path).
func (sh *Shard) AfterFunc(d float64, fn Func, arg any) {
	sh.AtFunc(sh.Now()+d, fn, arg)
}

// At schedules a shard-local closure at absolute time t.
func (sh *Shard) At(t float64, fn func()) { sh.AtFunc(t, runClosure, fn) }

// After schedules a shard-local closure d seconds from now.
func (sh *Shard) After(d float64, fn func()) { sh.AtFunc(sh.Now()+d, runClosure, fn) }

// Pending returns the whole run's pending event count (see Sim.Pending);
// a shard-local count would break the drain discipline of samplers
// running against shard clocks.
func (sh *Shard) Pending() int { return sh.parent.Pending() }

// Post schedules a coordinator event from shard context — the only legal
// cross-shard communication during a window. The target time must respect
// the kernel's lookahead (t >= now + lookahead); anything earlier could
// land inside the window another shard is still executing, so it panics as
// a causality violation just like scheduling in the past does. The event
// is buffered in the shard's outbox and merged at the window barrier in
// deterministic (time, shard, emission) order.
func (sh *Shard) Post(t float64, fn Func, arg any) {
	if fn == nil {
		panic("sim: nil event callback")
	}
	if t < sh.Now()+sh.parent.lookahead {
		panic("sim: cross-shard event posted inside the lookahead window")
	}
	sh.outbox = append(sh.outbox, outboxEntry{time: t, fn: fn, arg: arg})
}

// runTimedWindow is runWindow wrapped in the wall-clock busy measurement
// the barrier-stall profile needs.
func (sh *Shard) runTimedWindow(bound float64) {
	//prefill:allow(simdeterminism): shard busy-time profiling; wall time is observed, never fed back into event order
	start := time.Now()
	sh.runWindow(bound)
	//prefill:allow(simdeterminism): shard busy-time profiling; wall time is observed, never fed back into event order
	sh.lastBusy = uint64(time.Since(start))
	sh.busyNanos += sh.lastBusy
}

// runWindow drains the shard's events with time < bound. The strict
// minTime check is the lookahead-safety invariant: a shard never executes
// an event at or past the coordinator's window bound, no matter what its
// events schedule (pinned by TestShardNeverExecutesPastWindowBound).
func (sh *Shard) runWindow(bound float64) {
	for {
		t := sh.heap.minTime()
		if t >= bound {
			return
		}
		e := sh.heap.pop()
		sh.now = e.time
		sh.executed++
		e.fn(e.arg)
	}
}
