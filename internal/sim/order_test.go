package sim

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"testing"
)

// --- the coordinator's time-ordered ring ---

// Events scheduled in time order through AtFuncInOrder, ties included,
// queue in the ring and leave the heap empty; one earlier than the ring's
// tail goes to the heap. Either way they run in (time, seq) order,
// interleaved with AtFunc's events as one heap would run them.
func TestInOrderArrivalsBypassHeap(t *testing.T) {
	var s Sim
	var got []string
	note := func(name string) func() { return func() { got = append(got, name) } }
	for i, at := range []float64{1, 2, 2, 3, 5} {
		s.AtFuncInOrder(at, runClosure, note(fmt.Sprintf("a%d", i)))
	}
	if s.heap.len() != 0 || s.ring.Len() != 5 || s.Pending() != 5 {
		t.Fatalf("heap %d, ring %d, pending %d after five in-order events; want 0, 5, 5",
			s.heap.len(), s.ring.Len(), s.Pending())
	}
	s.AtFuncInOrder(4, runClosure, note("late")) // earlier than the tail at 5
	if s.heap.len() != 1 || s.ring.Len() != 5 {
		t.Fatalf("an out-of-order event left heap %d, ring %d; want 1, 5", s.heap.len(), s.ring.Len())
	}
	s.AtFunc(2, runClosure, note("h2")) // ties a2 and a3, scheduled after them
	s.AtFunc(1, runClosure, note("h1")) // ties a0, scheduled after it
	if s.NextTime() != 1 || s.Pending() != 8 {
		t.Fatalf("NextTime %g, Pending %d; want 1, 8", s.NextTime(), s.Pending())
	}
	s.Run()
	want := []string{"a0", "h1", "a1", "a2", "h2", "a3", "late", "a4"}
	if !slices.Equal(got, want) {
		t.Fatalf("ran %v, want %v", got, want)
	}
	// Once the ring drains, any time is in order again.
	s.AtFuncInOrder(5, runClosure, note("x"))
	if s.heap.len() != 0 || s.ring.Len() != 1 {
		t.Fatalf("after a drain: heap %d, ring %d; want 0, 1", s.heap.len(), s.ring.Len())
	}
}

// The ring follows the ringbuf discipline: capacity tracks the pending
// depth, so a deep burst of in-order events drains back to the floor and
// leaves no callback or payload reachable.
func TestRingShrinksAfterDrain(t *testing.T) {
	var s Sim
	c := &counter{}
	const depth = 4096
	for i := 0; i < depth; i++ {
		s.AtFuncInOrder(float64(i), bump, c)
	}
	if s.heap.len() != 0 || s.ring.Cap() < depth {
		t.Fatalf("heap %d, ring cap %d after %d in-order events", s.heap.len(), s.ring.Cap(), depth)
	}
	s.Run()
	if c.fired != depth {
		t.Fatalf("fired %d of %d", c.fired, depth)
	}
	if s.ring.Cap() > 2*minEventCap {
		t.Fatalf("ring holds %d slots after drain, want <= %d", s.ring.Cap(), 2*minEventCap)
	}
}

// --- non-finite times ---

// nonFinite are the event times no run can execute in order.
var nonFinite = []float64{math.NaN(), math.Inf(1)}

// mustPanic fails the test unless fn panics.
func mustPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s did not panic", what)
		}
	}()
	fn()
}

// A NaN or +Inf event time panics on every scheduling path, as a past
// time does, and leaves nothing queued. A NaN compares false with every
// time, so a queued one would scramble the order and strand itself; an
// event at +Inf never comes due, yet a loop that re-arms while events are
// pending would wait on it forever.
func TestNonFiniteTimesPanic(t *testing.T) {
	var s Sim
	s.AtFunc(1, bump, &counter{})
	for _, at := range nonFinite {
		mustPanic(t, fmt.Sprintf("AtFunc(%g)", at), func() { s.AtFunc(at, bump, nil) })
		mustPanic(t, fmt.Sprintf("AtFuncInOrder(%g)", at), func() { s.AtFuncInOrder(at, bump, nil) })
		mustPanic(t, fmt.Sprintf("At(%g)", at), func() { s.At(at, func() {}) })
		mustPanic(t, fmt.Sprintf("AfterFunc(%g)", at), func() { s.AfterFunc(at, bump, nil) })
		mustPanic(t, fmt.Sprintf("Observer.At(%g)", at), func() { s.NewObserver(bump, nil).At(at) })
	}
	if s.Pending() != 1 || s.Run() != 1 {
		t.Fatalf("pending %d after the rejected calls, want only the event at 1", s.Pending())
	}

	p := NewSharded(2, 0.5)
	sh := p.Shard(1)
	for _, at := range nonFinite {
		mustPanic(t, fmt.Sprintf("sharded AtFunc(%g)", at), func() { p.AtFunc(at, bump, nil) })
		mustPanic(t, fmt.Sprintf("sharded AtFuncInOrder(%g)", at), func() { p.AtFuncInOrder(at, bump, nil) })
		mustPanic(t, fmt.Sprintf("Shard.AtFunc(%g)", at), func() { sh.AtFunc(at, bump, nil) })
		mustPanic(t, fmt.Sprintf("Shard.AfterFunc(%g)", at), func() { sh.AfterFunc(at, bump, nil) })
		mustPanic(t, fmt.Sprintf("Shard.Post(%g)", at), func() { sh.Post(at, bump, nil) })
	}
	if n := p.Pending(); n != 0 {
		t.Fatalf("sharded kernel holds %d events after the rejected calls, want 0", n)
	}
}

// --- differential event order ---

// orderKernel is the surface FuzzEventOrder drives: a kernel under test or
// the reference.
type orderKernel interface {
	Now() float64
	At(t float64, fn func())
	AtInOrder(t float64, fn func())
	RunUntil(deadline float64)
	Run() float64
	Pending() int
	NextTime() float64
}

// kernelUnderTest adapts a Sim, serial or sharded, to orderKernel.
type kernelUnderTest struct{ *Sim }

func (k kernelUnderTest) AtInOrder(t float64, fn func()) { k.AtFuncInOrder(t, runClosure, fn) }

// refKernel runs every event through one (time, seq)-ordered queue: the
// order the coordinator's heap and ring together must reproduce.
type refKernel struct {
	now   float64
	queue []refEvent // ascending (time, seq)
}

type refEvent struct {
	time float64
	fn   func()
}

func (r *refKernel) Now() float64 { return r.now }

// At inserts after every queued event at or before t: the new event's
// seq is the largest yet, so that is its (time, seq) place.
func (r *refKernel) At(t float64, fn func()) {
	i := sort.Search(len(r.queue), func(i int) bool { return r.queue[i].time > t })
	r.queue = slices.Insert(r.queue, i, refEvent{t, fn})
}

func (r *refKernel) AtInOrder(t float64, fn func()) { r.At(t, fn) }

func (r *refKernel) RunUntil(deadline float64) {
	for len(r.queue) > 0 && r.queue[0].time <= deadline {
		e := r.queue[0]
		r.queue = slices.Delete(r.queue, 0, 1)
		r.now = e.time
		e.fn()
	}
	r.now = max(r.now, deadline)
}

func (r *refKernel) Run() float64 {
	for len(r.queue) > 0 {
		e := r.queue[0]
		r.queue = slices.Delete(r.queue, 0, 1)
		r.now = e.time
		e.fn()
	}
	return r.now
}

func (r *refKernel) Pending() int { return len(r.queue) }

func (r *refKernel) NextTime() float64 {
	if len(r.queue) == 0 {
		return math.Inf(1)
	}
	return r.queue[0].time
}

// orderStep is one observation of a script's run: an event executing
// (id >= 0, in scheduling order) or a script step completing (id -1).
type orderStep struct {
	id        int
	now, next float64
	pending   int
}

// maxOrderOps bounds a script's steps so every fuzz input runs quickly.
const maxOrderOps = 512

// playOrderScript runs a script on k and returns what it observed. Each
// two-byte step is an op and an argument:
//
//   - op&3 == 0: AtFunc at now + d, where d = (op>>2 & 7) / 2;
//   - op&3 == 1: the in-order path at now + d, in or out of order;
//   - op&3 == 2: RunUntil(now + d);
//   - op&3 == 3: the in-order path at d past the last in-order time (or
//     now, if later), the arrival list's usual order.
//
// An event's argument byte schedules its follow-up when it runs: bits 0-1
// pick none, AtFunc or the in-order path (3 is none), bits 2-4 its delay
// in half seconds, and bits 5-7 the follow-up's own argument. Times are
// multiples of one half, so ties are exact and frequent. The script ends
// with Run.
func playOrderScript(k orderKernel, script []byte) []orderStep {
	var log []orderStep
	observe := func(id int) {
		log = append(log, orderStep{id: id, now: k.Now(), next: k.NextTime(), pending: k.Pending()})
	}
	ids, lastInOrder := 0, 0.0
	var schedule func(inOrder bool, at float64, arg byte)
	schedule = func(inOrder bool, at float64, arg byte) {
		id := ids
		ids++
		fn := func() {
			observe(id)
			if kind := arg & 3; kind == 1 || kind == 2 {
				schedule(kind == 2, k.Now()+float64(arg>>2&7)/2, arg>>5)
			}
		}
		if !inOrder {
			k.At(at, fn)
			return
		}
		lastInOrder = at
		k.AtInOrder(at, fn)
	}
	for i := 0; i+1 < len(script) && i < 2*maxOrderOps; i += 2 {
		op, arg := script[i], script[i+1]
		d := float64(op>>2&7) / 2
		switch op & 3 {
		case 0:
			schedule(false, k.Now()+d, arg)
		case 1:
			schedule(true, k.Now()+d, arg)
		case 2:
			k.RunUntil(k.Now() + d)
		case 3:
			schedule(true, max(lastInOrder, k.Now())+d, arg)
		}
		observe(-1)
	}
	k.Run()
	observe(-1)
	return log
}

// FuzzEventOrder drives scripts of AtFunc calls, in-order calls (in and
// out of time order, with ties), handlers that schedule follow-ups and
// RunUntil at fuzzed deadlines through the serial kernel and a two-shard
// kernel's coordinator. Each must execute the reference's sequence and
// report its clock, NextTime and Pending after every event and step.
func FuzzEventOrder(f *testing.F) {
	f.Add([]byte{3, 0, 7, 0, 7, 0, 11, 0, 2, 0})                       // arrivals in order, then a step
	f.Add([]byte{3, 0, 15, 0, 5, 0, 1, 0, 28, 0})                      // one late arrival goes to the heap
	f.Add([]byte{0, 1, 3, 5, 1, 9, 4, 2, 3, 6, 10, 0})                 // ties with follow-ups on both paths
	f.Add([]byte{3, 0x26, 3, 0x45, 3, 0x2a, 14, 0, 6, 0, 3, 1, 30, 0}) // nested follow-ups between steps
	f.Add([]byte{1, 0, 0, 0, 1, 0, 0, 0, 2, 0, 3, 0, 0, 0})            // equal times alternate between the queues
	f.Fuzz(func(t *testing.T, script []byte) {
		want := playOrderScript(&refKernel{}, script)
		for _, k := range []struct {
			name string
			sim  *Sim
		}{{"serial", &Sim{}}, {"2 shards", NewSharded(2, 1)}} {
			got := playOrderScript(kernelUnderTest{k.sim}, script)
			if !slices.Equal(got, want) {
				i := 0
				for i < min(len(got), len(want)) && got[i] == want[i] {
					i++
				}
				t.Fatalf("%s kernel: observation %d of %d differs: got %v, reference %v",
					k.name, i, len(want), got[i:min(i+3, len(got))], want[i:min(i+3, len(want))])
			}
			if k.sim.heap.len() != 0 || k.sim.ring.Len() != 0 {
				t.Fatalf("%s kernel: heap %d, ring %d after Run", k.name, k.sim.heap.len(), k.sim.ring.Len())
			}
		}
	})
}
