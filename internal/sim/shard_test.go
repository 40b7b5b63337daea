package sim

import (
	"math"
	"runtime"
	"slices"
	"testing"
)

// --- lookahead safety ---

// TestShardNeverExecutesPastWindowBound pins the sharded kernel's safety
// invariant: runWindow drains strictly below the coordinator's bound and
// leaves everything else queued, even when executed events keep scheduling
// more work near the bound.
func TestShardNeverExecutesPastWindowBound(t *testing.T) {
	p := NewSharded(2, 1.0)
	sh := p.Shard(0)

	var fired []float64
	const bound = 2.0
	var chain func()
	chain = func() {
		fired = append(fired, sh.Now())
		sh.After(0.3, chain)
	}
	sh.At(0.1, chain)
	sh.At(2.0, func() { fired = append(fired, sh.Now()) }) // exactly at the bound
	sh.At(2.5, func() { fired = append(fired, sh.Now()) })

	sh.runWindow(bound)

	if len(fired) == 0 {
		t.Fatal("window executed nothing")
	}
	for _, tm := range fired {
		if tm >= bound {
			t.Fatalf("shard executed an event at %v, at or past the window bound %v", tm, bound)
		}
	}
	// 0.1, 0.4, ..., 1.9 = 7 events; the 2.0 and 2.5 events and the 2.2
	// reschedule must still be queued.
	if len(fired) != 7 {
		t.Fatalf("window executed %d events, want 7", len(fired))
	}
	if got := sh.heap.len(); got != 3 {
		t.Fatalf("%d events left queued after the window, want 3", got)
	}
	if sh.now >= bound {
		t.Fatalf("shard clock %v advanced to/past the bound %v", sh.now, bound)
	}
}

func TestPostInsideLookaheadPanics(t *testing.T) {
	p := NewSharded(2, 0.5)
	sh := p.Shard(1)
	defer func() {
		if recover() == nil {
			t.Fatal("Post inside the lookahead window did not panic")
		}
	}()
	sh.Post(0.4999, func(any) {}, nil) // now=0, lookahead=0.5
}

func TestPostAtExactLookaheadIsAccepted(t *testing.T) {
	p := NewSharded(2, 0.5)
	ran := false
	p.Shard(0).Post(0.5, func(any) { ran = true }, nil)
	if end := p.Run(); end != 0.5 {
		t.Fatalf("final time %v, want 0.5", end)
	}
	if !ran {
		t.Fatal("setup-time Post was stranded in the outbox")
	}
}

func TestShardedConstructionValidation(t *testing.T) {
	for _, tc := range []struct {
		name string
		fn   func()
	}{
		{"zero shards", func() { NewSharded(0, 1) }},
		{"zero lookahead", func() { NewSharded(2, 0) }},
		{"negative lookahead", func() { NewSharded(2, -1) }},
		{"infinite lookahead", func() { NewSharded(2, math.Inf(1)) }},
		{"shard past scheduling", func() {
			p := NewSharded(1, 1)
			p.Shard(0).now = 5
			p.Shard(0).AtFunc(4, func(any) {}, nil)
		}},
		{"coordinator past scheduling", func() {
			p := NewSharded(1, 1)
			p.now = 5
			p.AtFunc(4, func(any) {}, nil)
		}},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", tc.name)
				}
			}()
			tc.fn()
		}()
	}
}

// --- serial-vs-sharded oracle ---

// oracleLookahead is the oracle workload's cross-shard latency: chains
// fire no faster than every 0.1s, and posts target now + exactly the
// lookahead.
const oracleLookahead = 0.05

// oracleChain is a self-rescheduling chain bound to one clock, the test
// analogue of an engine instance: every postEvery-th firing notifies the
// coordinator, which schedules a reply back onto the chain's clock.
type oracleChain struct {
	app       *oracleApp
	clock     Clock
	post      func(t float64, fn Func, arg any)
	id        int
	dt        float64
	remaining int
	fired     int
	postEvery int
	fireTimes []float64
	replies   []float64
}

type oracleNote struct {
	chain int
	time  float64
}

// oracleApp is the coordinator-side shared state.
type oracleApp struct {
	coord  Clock
	chains []*oracleChain
	log    []oracleNote
}

func oracleFire(arg any) {
	c := arg.(*oracleChain)
	now := c.clock.Now()
	c.fireTimes = append(c.fireTimes, now)
	c.fired++
	c.remaining--
	if c.fired%c.postEvery == 0 {
		c.post(now+oracleLookahead, oracleNoteFn, c)
	}
	if c.remaining > 0 {
		c.clock.AfterFunc(c.dt, oracleFire, c)
	}
}

// oracleNoteFn runs on the coordinator: log the notification and reply
// onto the sender's clock (a router-dispatch-shaped interaction).
func oracleNoteFn(arg any) {
	c := arg.(*oracleChain)
	now := c.app.coord.Now()
	c.app.log = append(c.app.log, oracleNote{chain: c.id, time: now})
	c.clock.AtFunc(now+0.01, oracleReply, c)
}

func oracleReply(arg any) {
	c := arg.(*oracleChain)
	c.replies = append(c.replies, c.clock.Now())
}

// buildOracle wires the chain population onto a kernel. shards == 0 means
// the serial kernel.
func buildOracle(chains, steps, shards int) (*oracleApp, func() float64, func() uint64) {
	app := &oracleApp{}
	var run func() float64
	var executed func() uint64
	var clockFor func(i int) (Clock, func(t float64, fn Func, arg any))

	if shards == 0 {
		s := &Sim{}
		app.coord = s
		run = s.Run
		executed = s.Executed
		clockFor = func(int) (Clock, func(t float64, fn Func, arg any)) { return s, s.AtFunc }
	} else {
		p := NewSharded(shards, oracleLookahead)
		app.coord = p
		run = p.Run
		executed = p.Executed
		clockFor = func(i int) (Clock, func(t float64, fn Func, arg any)) {
			sh := p.Shard(i % shards)
			return sh, sh.Post
		}
	}

	const phi = 0.6180339887498949
	for i := 0; i < chains; i++ {
		clock, post := clockFor(i)
		c := &oracleChain{
			app:       app,
			clock:     clock,
			post:      post,
			id:        i,
			dt:        0.1 + math.Mod(float64(i)*phi, 1)*0.05,
			remaining: steps,
			postEvery: 7,
		}
		app.chains = append(app.chains, c)
		clock.AtFunc(math.Mod(float64(i)*phi*phi, 1)*0.05, oracleFire, c)
	}
	return app, run, executed
}

// TestShardedMatchesSerialOracle drives the same seeded chain workload —
// shard-local self-scheduling, cross-shard posts, coordinator replies back
// onto shard clocks — through the serial kernel and the sharded kernel at
// 1, 2 and 8 shards, requiring identical event-level observations
// everywhere: per-chain firing times, coordinator log order, reply times,
// final clock, and total executed events.
func TestShardedMatchesSerialOracle(t *testing.T) {
	const chains, steps = 24, 40
	ref, runRef, execRef := buildOracle(chains, steps, 0)
	refEnd := runRef()
	refExec := execRef()
	if len(ref.log) == 0 {
		t.Fatal("oracle workload produced no coordinator notifications")
	}

	for _, shards := range []int{1, 2, 8} {
		app, run, exec := buildOracle(chains, steps, shards)
		end := run()
		if end != refEnd {
			t.Errorf("shards=%d: final time %v, serial %v", shards, end, refEnd)
		}
		if got := exec(); got != refExec {
			t.Errorf("shards=%d: executed %d events, serial %d", shards, got, refExec)
		}
		if len(app.log) != len(ref.log) {
			t.Fatalf("shards=%d: %d coordinator notes, serial %d", shards, len(app.log), len(ref.log))
		}
		for i := range app.log {
			if app.log[i] != ref.log[i] {
				t.Fatalf("shards=%d: note %d = %+v, serial %+v", shards, i, app.log[i], ref.log[i])
			}
		}
		for i, c := range app.chains {
			rc := ref.chains[i]
			if len(c.fireTimes) != len(rc.fireTimes) || len(c.replies) != len(rc.replies) {
				t.Fatalf("shards=%d chain %d: %d fires/%d replies, serial %d/%d",
					shards, i, len(c.fireTimes), len(c.replies), len(rc.fireTimes), len(rc.replies))
			}
			for j := range c.fireTimes {
				if c.fireTimes[j] != rc.fireTimes[j] {
					t.Fatalf("shards=%d chain %d fire %d at %v, serial %v",
						shards, i, j, c.fireTimes[j], rc.fireTimes[j])
				}
			}
			for j := range c.replies {
				if c.replies[j] != rc.replies[j] {
					t.Fatalf("shards=%d chain %d reply %d at %v, serial %v",
						shards, i, j, c.replies[j], rc.replies[j])
				}
			}
		}
	}
}

// TestRunUntilAtAnyShardCount pins RunUntil's contract on the serial
// kernel and on 1, 2 and 4 shards: every event at or before the deadline
// runs, on the coordinator and on every shard, events exactly at it
// included; later ones stay queued; and the clock lands on the deadline.
func TestRunUntilAtAnyShardCount(t *testing.T) {
	for _, shards := range []int{0, 1, 2, 4} {
		s := &Sim{}
		if shards > 0 {
			s = NewSharded(shards, 0.5)
		}
		clocks := []Clock{s}
		for i := 0; i < shards; i++ {
			clocks = append(clocks, s.Shard(i))
		}
		// One log per clock: shards run their windows in parallel.
		fired := make([][]float64, len(clocks))
		for i, c := range clocks {
			for _, at := range []float64{1, 2, 3} {
				c.At(at, func() { fired[i] = append(fired[i], at) })
			}
		}
		check := func(when string, now float64, want []float64) {
			t.Helper()
			if s.Now() != now {
				t.Fatalf("%d shards: now %v after %s, want %v", shards, s.Now(), when, now)
			}
			for i := range fired {
				if !slices.Equal(fired[i], want) {
					t.Fatalf("%d shards: clock %d fired %v after %s, want %v", shards, i, fired[i], when, want)
				}
			}
		}
		s.RunUntil(2)
		check("RunUntil(2)", 2, []float64{1, 2})
		if s.Pending() != len(clocks) {
			t.Fatalf("%d shards: %d pending after RunUntil(2), want %d", shards, s.Pending(), len(clocks))
		}
		s.RunUntil(2.5)
		check("RunUntil(2.5)", 2.5, []float64{1, 2})
		if end := s.Run(); end != 3 {
			t.Fatalf("%d shards: Run ended at %v, want 3", shards, end)
		}
		check("Run", 3, []float64{1, 2, 3})
	}
}

// TestNextTimeAtAnyShardCount checks that NextTime reports the earliest
// pending event wherever it sits: on the coordinator, on a shard, or in an
// outbox posted outside a run.
func TestNextTimeAtAnyShardCount(t *testing.T) {
	noop := func(any) {}
	for _, shards := range []int{0, 1, 2, 4} {
		s := &Sim{}
		if shards > 0 {
			s = NewSharded(shards, 0.5)
		}
		if got := s.NextTime(); !math.IsInf(got, 1) {
			t.Fatalf("%d shards: NextTime %v on an empty kernel, want +Inf", shards, got)
		}
		s.AtFunc(5, noop, nil)
		if got := s.NextTime(); got != 5 {
			t.Fatalf("%d shards: NextTime %v, want the coordinator's 5", shards, got)
		}
		if shards == 0 {
			continue
		}
		last := s.Shard(shards - 1)
		last.AtFunc(3, noop, nil)
		if got := s.NextTime(); got != 3 {
			t.Fatalf("%d shards: NextTime %v, want shard %d's 3", shards, got, shards-1)
		}
		last.Post(2, noop, nil)
		if got := s.NextTime(); got != 2 {
			t.Fatalf("%d shards: NextTime %v, want the posted 2", shards, got)
		}
		s.RunUntil(2)
		if got := s.NextTime(); got != 3 {
			t.Fatalf("%d shards: NextTime %v after RunUntil(2), want 3", shards, got)
		}
		s.Run()
		if got := s.NextTime(); !math.IsInf(got, 1) {
			t.Fatalf("%d shards: NextTime %v after Run, want +Inf", shards, got)
		}
	}
}

// TestRunUntilSteppingMatchesRun steps the oracle workload with RunUntil
// on the serial kernel and on 1, 2 and 8 shards, at steps shorter than,
// equal to and longer than the lookahead. No step may run an event past
// its deadline, and the run must observe exactly what one serial Run does.
func TestRunUntilSteppingMatchesRun(t *testing.T) {
	const chains, steps = 24, 40
	ref, runRef, execRef := buildOracle(chains, steps, 0)
	runRef()
	for _, shards := range []int{0, 1, 2, 8} {
		for _, step := range []float64{0.013, oracleLookahead, 0.5} {
			app, _, exec := buildOracle(chains, steps, shards)
			k := app.coord.(*Sim)
			for d := 0.0; k.Pending() > 0; {
				d += step
				k.RunUntil(d)
				for i, c := range app.chains {
					if n := len(c.fireTimes); n > 0 && c.fireTimes[n-1] > d {
						t.Fatalf("shards=%d step=%v: chain %d fired at %v, past the deadline %v",
							shards, step, i, c.fireTimes[n-1], d)
					}
				}
			}
			if got, want := exec(), execRef(); got != want {
				t.Fatalf("shards=%d step=%v: executed %d events, serial Run %d", shards, step, got, want)
			}
			if !slices.Equal(app.log, ref.log) {
				t.Fatalf("shards=%d step=%v: coordinator log differs from serial Run", shards, step)
			}
			for i, c := range app.chains {
				rc := ref.chains[i]
				if !slices.Equal(c.fireTimes, rc.fireTimes) || !slices.Equal(c.replies, rc.replies) {
					t.Fatalf("shards=%d step=%v: chain %d differs from serial Run", shards, step, i)
				}
			}
		}
	}
}

// TestShardedExecutedAndPending pins the merged counters: Executed sums
// the coordinator and every shard exactly, and Pending reports the whole
// run's queue from any clock.
func TestShardedExecutedAndPending(t *testing.T) {
	p := NewSharded(3, 0.5)
	total := 0
	for i := 0; i < 3; i++ {
		sh := p.Shard(i)
		for k := 0; k < 4; k++ {
			sh.AtFunc(float64(k)+float64(i)*0.1, func(any) {}, nil)
			total++
		}
	}
	p.AtFunc(1.5, func(any) {}, nil)
	total++
	if got := p.Pending(); got != total {
		t.Fatalf("Pending() = %d before Run, want %d", got, total)
	}
	if got := p.Shard(2).Pending(); got != total {
		t.Fatalf("Shard.Pending() = %d, want the run-wide %d", got, total)
	}
	p.Run()
	if got := p.Pending(); got != 0 {
		t.Fatalf("Pending() = %d after Run, want 0", got)
	}
	if got := p.Executed(); got != uint64(total) {
		t.Fatalf("Executed() = %d, want %d", got, total)
	}
	var perShard uint64
	for i := 0; i < 3; i++ {
		perShard += p.Shard(i).Executed()
	}
	if perShard != uint64(total-1) {
		t.Fatalf("shard-local executed sum = %d, want %d", perShard, total-1)
	}
}

// TestShardNowFollowsCoordinator pins Shard.Now's max(local, coordinator)
// semantics: a coordinator event scheduling onto an idle shard must see
// the coordinator's time, not the shard's stale clock.
func TestShardNowFollowsCoordinator(t *testing.T) {
	p := NewSharded(2, 1.0)
	var seen float64
	p.At(3.0, func() {
		seen = p.Shard(1).Now()
		p.Shard(1).AfterFunc(0.5, func(any) {}, nil)
	})
	p.Run()
	if seen != 3.0 {
		t.Fatalf("idle shard's Now() = %v during a coordinator event at 3.0", seen)
	}
	if end := p.Now(); end != 3.5 {
		t.Fatalf("final time %v, want 3.5", end)
	}
}

// --- zero-alloc discipline ---

// allocChain is the steady-state workload: package-level callback, reused
// payload, a cross-shard post every 256 firings.
type allocChain struct {
	sh        *Shard
	remaining int
	fired     int
}

func allocChainStep(arg any) {
	c := arg.(*allocChain)
	if c.remaining <= 0 {
		return
	}
	c.remaining--
	c.fired++
	if c.fired%256 == 0 {
		c.sh.Post(c.sh.Now()+1, allocNote, c)
	}
	c.sh.AfterFunc(0.5, allocChainStep, c)
}

func allocNote(any) {}

// TestShardedSteadyStateZeroAlloc pins the per-shard zero-alloc
// discipline: once heaps and outboxes are warm, a sharded run's
// allocations are dominated by the per-Run worker spawn (a handful of
// channels and goroutines), not by events. Measured via MemStats because
// the run is multi-goroutine.
func TestShardedSteadyStateZeroAlloc(t *testing.T) {
	const shards, chains, steps = 4, 32, 2000
	p := NewSharded(shards, 0.75)
	pop := func() []*allocChain {
		base := p.Now()
		cs := make([]*allocChain, chains)
		for i := range cs {
			sh := p.Shard(i % shards)
			cs[i] = &allocChain{sh: sh, remaining: steps}
			sh.AtFunc(base+float64(i)*0.001, allocChainStep, cs[i])
		}
		return cs
	}
	pop()
	p.Run() // warm heaps, outboxes, and the merge path

	before := p.Executed()
	pop()
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	p.Run()
	runtime.ReadMemStats(&m1)
	events := p.Executed() - before
	if events == 0 {
		t.Fatal("no events executed")
	}
	perEvent := float64(m1.Mallocs-m0.Mallocs) / float64(events)
	if perEvent > 0.01 {
		t.Fatalf("sharded steady state allocates %.4f/event over %d events (want <= 0.01)",
			perEvent, events)
	}
}
