package trace

import (
	"sync"
	"testing"

	"repro/internal/sched"
	"repro/internal/sim"
)

func TestRecorderEmitAndCounters(t *testing.T) {
	r := New(16)
	r.Submit(1.0, "affinity", 1, sched.ClassInteractive)
	r.Route(1.0, "affinity", 1, sched.ClassInteractive, 2, 128, 0.5)
	r.Reject(2.0, "backlog", 2, sched.ClassBatch, 0, 9.5, 8)
	i := r.NewInstance("prefillonly")
	i.Queue(1, sched.ClassInteractive, 1.0, 1.5)
	i.Exec(1, sched.ClassInteractive, 1.5, 2.5, 128, 0.5)

	if got := r.Len(); got != 5 {
		t.Fatalf("Len = %d, want 5", got)
	}
	if got := r.TotalEmitted(); got != 5 {
		t.Fatalf("TotalEmitted = %d, want 5", got)
	}
	for _, k := range []Kind{KindSubmit, KindRoute, KindReject, KindQueue, KindExec} {
		if got := r.Emitted(k); got != 1 {
			t.Fatalf("Emitted(%v) = %d, want 1", k, got)
		}
	}
	spans := r.Spans()
	if spans[0].Kind != KindSubmit || spans[4].Kind != KindExec {
		t.Fatalf("span order: %v ... %v", spans[0].Kind, spans[4].Kind)
	}
	if got := spans[4].End(); got != 2.5 {
		t.Fatalf("exec End = %v, want 2.5", got)
	}
	if spans[3].Dur != 0.5 {
		t.Fatalf("queue Dur = %v, want 0.5", spans[3].Dur)
	}
}

// TestRingOverflowDropsOldest pins the flight-recorder contract: the ring
// keeps the most recent window, drops count the evictions, and the
// cumulative per-kind counters stay exact across drops.
func TestRingOverflowDropsOldest(t *testing.T) {
	const max, total = 4, 10
	r := New(max)
	for id := int64(0); id < total; id++ {
		r.Submit(float64(id), "p", id, sched.ClassInteractive)
	}
	if got := r.Len(); got != max {
		t.Fatalf("Len = %d, want %d", got, max)
	}
	if got := r.Dropped(); got != total-max {
		t.Fatalf("Dropped = %d, want %d", got, total-max)
	}
	if got := r.Emitted(KindSubmit); got != total {
		t.Fatalf("Emitted = %d, want %d (counters must survive drops)", got, total)
	}
	for j, s := range r.Spans() {
		if want := int64(total - max + j); s.ReqID != want {
			t.Fatalf("span %d has ReqID %d, want %d (oldest must go first)", j, s.ReqID, want)
		}
	}
}

// TestConcurrentEmission hammers one recorder from many goroutines (the
// served path emits from request goroutines while the clock loop samples
// gauges) and checks the counters are exact. Run under -race.
func TestConcurrentEmission(t *testing.T) {
	const workers, perWorker = 8, 500
	r := New(64) // small ring: force constant overflow too
	inst := r.NewInstance("e")
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for j := 0; j < perWorker; j++ {
				id := int64(w*perWorker + j)
				r.Submit(float64(j), "p", id, sched.ClassInteractive)
				inst.Exec(id, sched.ClassInteractive, float64(j), float64(j)+1, 0, 0)
			}
		}(w)
	}
	// Concurrent readers must not race with emission.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for k := 0; k < 100; k++ {
			_ = r.Spans()
			_ = r.TotalEmitted()
			_ = r.Instances()
		}
	}()
	wg.Wait()
	<-done
	if got := r.Emitted(KindSubmit); got != workers*perWorker {
		t.Fatalf("submits = %d, want %d", got, workers*perWorker)
	}
	if got := r.Emitted(KindExec); got != workers*perWorker {
		t.Fatalf("execs = %d, want %d", got, workers*perWorker)
	}
	if got, want := r.Dropped(), r.TotalEmitted()-uint64(r.Len()); got != want {
		t.Fatalf("dropped %d + held %d != emitted %d", got, r.Len(), r.TotalEmitted())
	}
}

// TestDisabledTracingZeroAlloc pins the hard constraint from the sim
// kernel's discipline: with tracing disabled (nil recorder, nil instance
// handles) every emission site reduces to a branch — zero allocations.
func TestDisabledTracingZeroAlloc(t *testing.T) {
	var r *Recorder
	inst := r.NewInstance("e") // nil: the disabled handle engines hold
	if inst != nil {
		t.Fatal("nil recorder handed out a non-nil instance")
	}
	allocs := testing.AllocsPerRun(1000, func() {
		r.Submit(1, "p", 1, sched.ClassInteractive)
		r.Route(1, "p", 1, sched.ClassInteractive, 0, 0, 0)
		r.Reject(1, "backlog", 1, sched.ClassInteractive, 0, 0, 0)
		r.LoadGauge(1, 0, 0, 0)
		r.PoolGauge(1, 1, 0)
		r.ColdStart(1, 0, "revive", 1)
		r.CacheGauge(1, 0, 0)
		inst.Queue(1, sched.ClassInteractive, 0, 1)
		inst.Exec(1, sched.ClassInteractive, 1, 2, 0, 0)
		inst.Stage("s", 1, sched.ClassInteractive, 1, 2)
	})
	if allocs != 0 {
		t.Fatalf("disabled tracing allocates %.1f per event, want 0", allocs)
	}
}

// TestEnabledEmitZeroAllocSteadyState pins the enabled path's span-slot
// preallocation: once the ring is warm, Emit reuses slots and never
// allocates.
func TestEnabledEmitZeroAllocSteadyState(t *testing.T) {
	r := New(256)
	inst := r.NewInstance("e")
	for j := 0; j < 512; j++ { // wrap the ring: steady state
		inst.Exec(int64(j), sched.ClassInteractive, 0, 1, 0, 0)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		r.Submit(1, "p", 1, sched.ClassInteractive)
		inst.Queue(1, sched.ClassInteractive, 0, 1)
		inst.Exec(1, sched.ClassInteractive, 1, 2, 0, 0)
	})
	if allocs != 0 {
		t.Fatalf("steady-state emission allocates %.1f per event, want 0", allocs)
	}
}

// TestSamplerDrains pins the sampler's termination discipline: it ticks
// while work is pending and winds down when the queue would otherwise
// drain, so batch runs terminate; Start re-arms idempotently.
func TestSamplerDrains(t *testing.T) {
	var s sim.Sim
	var samples int
	sp := NewSampler(&s, 1.0, func(now float64) { samples++ })
	// Work spanning 5 sim seconds.
	for j := 1; j <= 5; j++ {
		s.At(float64(j), func() {})
	}
	sp.Start()
	sp.Start() // idempotent: must not double-tick
	s.Run()
	if samples < 4 {
		t.Fatalf("samples = %d, want >= 4 over 5s at 1s interval", samples)
	}
	if s.Pending() != 0 {
		t.Fatalf("sampler kept the sim alive: %d pending", s.Pending())
	}
	// Re-arming after a drain works.
	before := samples
	s.At(s.Now()+3, func() {})
	sp.Start()
	s.Run()
	if samples <= before {
		t.Fatal("sampler did not re-arm after drain")
	}
}

func TestNewSamplerValidatesInterval(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero interval accepted")
		}
	}()
	NewSampler(&sim.Sim{}, 0, func(float64) {})
}
