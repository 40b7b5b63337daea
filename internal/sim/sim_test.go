package sim

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestEventsRunInTimeOrder(t *testing.T) {
	var s Sim
	var got []float64
	for _, at := range []float64{3, 1, 2, 1.5} {
		at := at
		s.At(at, func() { got = append(got, at) })
	}
	end := s.Run()
	if !sort.Float64sAreSorted(got) {
		t.Fatalf("events out of order: %v", got)
	}
	if end != 3 {
		t.Fatalf("final time = %v, want 3", end)
	}
}

func TestSimultaneousEventsFIFO(t *testing.T) {
	var s Sim
	var got []int
	for i := 0; i < 5; i++ {
		i := i
		s.At(1.0, func() { got = append(got, i) })
	}
	s.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("tie-break not FIFO: %v", got)
		}
	}
}

func TestEventsCanScheduleEvents(t *testing.T) {
	var s Sim
	fired := 0
	s.At(1, func() {
		s.After(1, func() { fired++ })
	})
	s.Run()
	if fired != 1 || s.Now() != 2 {
		t.Fatalf("fired=%d now=%v", fired, s.Now())
	}
}

func TestPastSchedulingPanics(t *testing.T) {
	var s Sim
	s.At(5, func() {})
	s.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past did not panic")
		}
	}()
	s.At(1, func() {})
}

func TestRunUntil(t *testing.T) {
	var s Sim
	fired := []float64{}
	for _, at := range []float64{1, 2, 3, 4} {
		at := at
		s.At(at, func() { fired = append(fired, at) })
	}
	s.RunUntil(2.5)
	if len(fired) != 2 {
		t.Fatalf("fired %v, want events at 1 and 2 only", fired)
	}
	if s.Now() != 2.5 {
		t.Fatalf("now = %v, want 2.5", s.Now())
	}
	if s.Pending() != 2 {
		t.Fatalf("pending = %d, want 2", s.Pending())
	}
}

func TestPoissonMeanRate(t *testing.T) {
	p := NewPoisson(10, 42)
	const n = 100000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += p.Next()
	}
	mean := sum / n
	if math.Abs(mean-0.1) > 0.005 {
		t.Fatalf("mean inter-arrival = %v, want ~0.1", mean)
	}
}

// arrivalTimes returns p's first n absolute arrival times after start.
func arrivalTimes(p *Poisson, start float64, n int) []float64 {
	out := make([]float64, n)
	t := start
	for i := range out {
		t += p.Next()
		out[i] = t
	}
	return out
}

func TestPoissonDeterministic(t *testing.T) {
	a := arrivalTimes(NewPoisson(5, 7), 0, 100)
	b := arrivalTimes(NewPoisson(5, 7), 0, 100)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed produced different arrivals")
		}
	}
	c := arrivalTimes(NewPoisson(5, 8), 0, 100)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical arrivals")
	}
}

func TestPoissonArrivalsIncreasing(t *testing.T) {
	f := func(seed int64) bool {
		times := arrivalTimes(NewPoisson(3, seed), 1.0, 50)
		prev := 1.0
		for _, tt := range times {
			if tt <= prev {
				return false
			}
			prev = tt
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestPoissonRejectsBadRate(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero rate accepted")
		}
	}()
	NewPoisson(0, 1)
}

// --- fast path (AtFunc/AfterFunc) semantics ---

// counter is a fast-path payload; bump is its package-level callback.
type counter struct{ fired int }

func bump(arg any) { arg.(*counter).fired++ }

func TestFastPathInterleavesWithClosures(t *testing.T) {
	var s Sim
	var order []string
	c := &counter{}
	s.At(2, func() { order = append(order, "closure@2") })
	s.AtFunc(1, func(arg any) { order = append(order, "fast@1"); bump(arg) }, c)
	s.AfterFunc(3, func(arg any) { order = append(order, "fast@3"); bump(arg) }, c)
	s.Run()
	if c.fired != 2 {
		t.Fatalf("fired = %d, want 2", c.fired)
	}
	want := []string{"fast@1", "closure@2", "fast@3"}
	for i, w := range want {
		if order[i] != w {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestFastPathTieBreaksFIFOWithClosures(t *testing.T) {
	var s Sim
	var got []int
	for i := 0; i < 6; i++ {
		i := i
		if i%2 == 0 {
			s.AtFunc(1.0, func(any) { got = append(got, i) }, nil)
		} else {
			s.At(1.0, func() { got = append(got, i) })
		}
	}
	s.Run()
	if len(got) != 6 {
		t.Fatalf("fired %d of 6 events: %v", len(got), got)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("mixed-path tie-break not FIFO: %v", got)
		}
	}
}

func TestNilCallbackPanics(t *testing.T) {
	var s Sim
	defer func() {
		if recover() == nil {
			t.Fatal("nil callback accepted")
		}
	}()
	s.AtFunc(1, nil, nil)
}

// --- backing-array retention (ringbuf discipline) ---

// The heap's backing array must shrink back toward minEventCap after a
// deep burst drains: retaining the peak-depth array would pin memory
// proportional to the largest burst ever queued, the same defect class as
// the `q = q[1:]` retention family.
func TestHeapShrinksAfterDrain(t *testing.T) {
	var s Sim
	c := &counter{}
	const depth = 4096
	for i := 0; i < depth; i++ {
		s.AtFunc(float64(i), bump, c)
	}
	if peak := cap(s.heap.events); peak < depth {
		t.Fatalf("cap %d below pending depth %d", peak, depth)
	}
	s.Run()
	if c.fired != depth {
		t.Fatalf("fired %d of %d", c.fired, depth)
	}
	if cap(s.heap.events) > 2*minEventCap {
		t.Fatalf("backing array holds %d slots after drain, want <= %d",
			cap(s.heap.events), 2*minEventCap)
	}
}

// Sustained schedule-one/run-one churn must keep the backing array at the
// floor: capacity tracks live depth, not event history.
func TestHeapBoundedUnderSustainedChurn(t *testing.T) {
	var s Sim
	c := &counter{}
	const n = 200_000
	for i := 0; i < n; i++ {
		s.AtFunc(float64(i), bump, c)
		s.RunUntil(float64(i))
	}
	if c.fired != n {
		t.Fatalf("fired %d of %d", c.fired, n)
	}
	if cap(s.heap.events) > 2*minEventCap {
		t.Fatalf("backing array holds %d slots after %d churned events", cap(s.heap.events), n)
	}
	// Vacated slots must be zeroed so fired callbacks and payloads are
	// collectable.
	for i := len(s.heap.events); i < cap(s.heap.events); i++ {
		if e := s.heap.events[:cap(s.heap.events)][i]; e.fn != nil || e.arg != nil {
			t.Fatalf("drained heap retains callback/payload at slot %d", i)
		}
	}
}

// --- allocation regression ---

// chain is a self-rescheduling fast-path payload: every firing schedules
// its successor, holding the pending depth constant — the kernel's steady
// state under a serving load.
type chain struct {
	s    *Sim
	step float64
}

func chainStep(arg any) {
	c := arg.(*chain)
	c.s.AfterFunc(c.step, chainStep, c)
}

// arriveStep is a pre-scheduled arrival: it schedules one follow-up, due
// 8.5 arrival gaps later.
func arriveStep(arg any) { arg.(*Sim).AfterFunc(8.5, settle, nil) }

func settle(any) {}

// Steady-state scheduling through the fast path must not allocate: the
// event heap is value-based and its capacity is already at depth, so an
// event costs one slice store and sift, nothing on the heap. This is the
// ISSUE-5 acceptance pin.
func TestSteadyStateSchedulingZeroAlloc(t *testing.T) {
	var s Sim
	const depth = 32
	for i := 0; i < depth; i++ {
		c := &chain{s: &s, step: 1}
		s.AtFunc(float64(i)/depth, chainStep, c)
	}
	// Warm one window so the backing array reaches its steady capacity.
	deadline := 1.0
	s.RunUntil(deadline)
	allocs := testing.AllocsPerRun(100, func() {
		deadline++
		s.RunUntil(deadline) // fires depth events, schedules depth more
	})
	if allocs != 0 {
		t.Fatalf("steady-state scheduling allocated %.1f times per %d events, want 0", allocs, depth)
	}
}

// BenchmarkSimKernel measures raw kernel event throughput at a constant
// pending depth: the fast path (package-level callback + payload pointer)
// against the closure path (a fresh capturing closure per event, the
// pre-ISSUE-5 idiom). -benchmem shows the fast path at 0 allocs/op.
func BenchmarkSimKernel(b *testing.B) {
	const depth = 64
	b.Run("fastpath", func(b *testing.B) {
		var s Sim
		for i := 0; i < depth; i++ {
			s.AtFunc(float64(i)/depth, chainStep, &chain{s: &s, step: 1})
		}
		b.ReportAllocs()
		b.ResetTimer()
		deadline := 0.0
		for i := 0; i < b.N; i += depth {
			deadline++
			s.RunUntil(deadline)
		}
	})
	b.Run("prescheduled", func(b *testing.B) {
		// A fleet run's shape: arrivals scheduled up front in time order
		// through the in-order path, 50,000 per run, each scheduling one
		// follow-up. An op is one arrival and its follow-up.
		var s Sim
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i += 50_000 {
			base := s.Now()
			for j := 0; j < min(b.N-i, 50_000); j++ {
				s.AtFuncInOrder(base+float64(j), arriveStep, &s)
			}
			s.Run()
		}
	})
	b.Run("closure", func(b *testing.B) {
		var s Sim
		var reschedule func()
		reschedule = func() { s.After(1, func() { reschedule() }) }
		for i := 0; i < depth; i++ {
			s.At(float64(i)/depth, reschedule)
		}
		b.ReportAllocs()
		b.ResetTimer()
		deadline := 0.0
		for i := 0; i < b.N; i += depth {
			deadline++
			s.RunUntil(deadline)
		}
	})
}

// TestObserverTicksAreNotPending: an observer's tick runs in (time, seq)
// order like any event, but Pending leaves it out. Two observers that
// re-arm only while other events are pending therefore stop one tick
// after the last other event instead of keeping each other alive, and
// re-arming allocates nothing.
func TestObserverTicksAreNotPending(t *testing.T) {
	var s Sim
	var ticks [2]int
	var obs [2]*Observer
	for i := range obs {
		obs[i] = s.NewObserver(func(any) {
			ticks[i]++
			if s.Pending() > 0 {
				obs[i].At(s.Now() + 1)
			}
		}, nil)
		obs[i].At(1)
	}
	s.At(2.5, func() {})
	if n := s.Pending(); n != 1 {
		t.Fatalf("Pending() = %d with two observer ticks and one event queued, want 1", n)
	}
	s.Run()
	if ticks != [2]int{3, 3} || s.NextTime() != math.Inf(1) {
		t.Fatalf("observers ticked %v times, next event at %g; want 3 each (t = 1, 2, 3), then none", ticks, s.NextTime())
	}
	if allocs := testing.AllocsPerRun(100, func() {
		obs[0].At(s.Now() + 1)
		s.Run()
	}); allocs != 0 {
		t.Fatalf("an observer tick allocates %g times, want 0", allocs)
	}
}
