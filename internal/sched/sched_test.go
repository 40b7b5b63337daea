package sched

import (
	"testing"
	"testing/quick"
)

func req(id int64, n int, arrival float64) *Request {
	toks := make([]uint64, n)
	for i := range toks {
		toks[i] = uint64(id)<<32 | uint64(i)
	}
	return &Request{ID: id, Tokens: toks, ArrivalTime: arrival}
}

func TestFIFOOrder(t *testing.T) {
	f := NewFIFO()
	f.Enqueue(req(1, 10, 0))
	f.Enqueue(req(2, 5, 1))
	f.Enqueue(req(3, 7, 2))
	for want := int64(1); want <= 3; want++ {
		r := f.Next(10)
		if r == nil || r.ID != want {
			t.Fatalf("FIFO popped %v, want %d", r, want)
		}
	}
	if f.Next(10) != nil {
		t.Fatal("empty queue returned a request")
	}
}

// FIFO's ring buffer must stay bounded by the peak queue depth under
// sustained load — the old `q = q[1:]` slice advance retained the entire
// backing array for the life of the queue.
func TestFIFOBoundedMemoryUnderSustainedLoad(t *testing.T) {
	f := NewFIFO()
	for i := 0; i < 1_000_000; i++ {
		f.Enqueue(req(int64(i), 1, float64(i)))
		if r := f.Next(float64(i)); r == nil || r.ID != int64(i) {
			t.Fatalf("iteration %d popped %v", i, r)
		}
	}
	if f.Len() != 0 {
		t.Fatalf("len = %d after drain", f.Len())
	}
	if f.q.Cap() > 16 {
		t.Fatalf("backing array holds %d slots after 1M requests at depth 1", f.q.Cap())
	}
}

// Ring wrap-around and resizing must preserve FIFO order under arbitrary
// enqueue/dequeue interleavings.
func TestFIFOOrderAcrossWrapAndResize(t *testing.T) {
	f := NewFIFO()
	var want []int64
	next := int64(0)
	rngStep := func(i int) int { return int((int64(i)*2654435761 + 1) % 7) } // deterministic pseudo-random
	for i := 0; i < 10000; i++ {
		if rngStep(i) < 4 {
			f.Enqueue(req(next, 1, 0))
			want = append(want, next)
			next++
		} else if len(want) > 0 {
			r := f.Next(0)
			if r == nil || r.ID != want[0] {
				t.Fatalf("popped %v, want %d", r, want[0])
			}
			want = want[1:]
		}
		if f.Len() != len(want) {
			t.Fatalf("len = %d, want %d", f.Len(), len(want))
		}
	}
}

func lenJCT(r *Request) float64 { return float64(r.Len()) }

func TestSRJFPicksShortest(t *testing.T) {
	s := NewSRJF(lenJCT)
	s.Enqueue(req(1, 100, 0))
	s.Enqueue(req(2, 10, 0))
	s.Enqueue(req(3, 50, 0))
	if r := s.Next(0); r.ID != 2 {
		t.Fatalf("SRJF popped %d, want 2", r.ID)
	}
	if r := s.Next(0); r.ID != 3 {
		t.Fatalf("SRJF popped %d, want 3", r.ID)
	}
	if s.Len() != 1 {
		t.Fatalf("len = %d, want 1", s.Len())
	}
}

func TestSRJFFreezesJCTAtEnqueue(t *testing.T) {
	// JCT function that changes after enqueue must not affect SRJF order.
	mult := 1.0
	jct := func(r *Request) float64 { return mult * float64(r.Len()) }
	s := NewSRJF(jct)
	s.Enqueue(req(1, 10, 0))
	mult = -1 // would invert the order if re-evaluated
	s.Enqueue(req(2, 20, 0))
	// Frozen JCTs: r1=10, r2=-20 → r2 first.
	if r := s.Next(0); r.ID != 2 {
		t.Fatalf("SRJF popped %d; static JCT not frozen at enqueue", r.ID)
	}
}

func TestCalibratedReevaluatesEveryDecision(t *testing.T) {
	// The cache-aware JCT changes between decisions; a cache change fed
	// through OnCacheChange must re-rank the queue. Request i watches
	// block hash i.
	cached := map[int64]bool{}
	jct := func(r *Request) float64 {
		if cached[r.ID] {
			return 1
		}
		return float64(r.Len())
	}
	c := NewCalibrated(jct, 0)
	c.SetWatch(func(r *Request) Watch { return Watch{uint64(r.ID)} })
	c.Enqueue(req(1, 100, 0))
	c.Enqueue(req(2, 50, 0))
	c.Enqueue(req(3, 70, 0))
	if r := c.Next(0); r.ID != 2 {
		t.Fatalf("first pick %d, want 2", r.ID)
	}
	// Request 1 suddenly hits cache (e.g. shares prefix with 2's insert).
	cached[1] = true
	c.OnCacheChange([]uint64{1}, nil)
	if r := c.Next(0); r.ID != 1 {
		t.Fatalf("after calibration pick %d, want 1", r.ID)
	}
}

func TestCalibratedFairnessOffset(t *testing.T) {
	// λ > 0: a long-waiting long request beats a fresh short one once
	// λ·T_queue exceeds the JCT difference.
	c := NewCalibrated(lenJCT, 500) // 0.5s credit per second waited
	old := req(1, 1000, 0)          // JCT 1000
	fresh := req(2, 10, 2000)       // JCT 10
	c.Enqueue(old)
	c.Enqueue(fresh)
	// At t=4000: old's credit = 0.5*4000 = 2000 > JCT gap 990.
	if r := c.Next(4000); r.ID != 1 {
		t.Fatalf("starved request not prioritized, got %d", r.ID)
	}
}

func TestCalibratedLambdaZeroIsPureSRJF(t *testing.T) {
	c := NewCalibrated(lenJCT, 0)
	c.Enqueue(req(1, 1000, 0)) // ancient but long
	c.Enqueue(req(2, 10, 999))
	if r := c.Next(1000); r.ID != 2 {
		t.Fatalf("λ=0 pick %d, want 2 (pure SRJF)", r.ID)
	}
}

// Ties on the calibrated key prefer the longer request (more cached
// prefix to reuse at equal miss-cost), then enqueue order — identically in
// the heap scheduler and the reference sweep.
func TestCalibratedTieBreak(t *testing.T) {
	constJCT := func(r *Request) float64 { return 10 }
	for _, s := range []Scheduler{NewCalibrated(constJCT, 0), NewCalibratedSweep(constJCT, 0)} {
		s.Enqueue(req(1, 5, 0))
		s.Enqueue(req(2, 9, 0))
		s.Enqueue(req(3, 9, 0))
		for _, want := range []int64{2, 3, 1} {
			if r := s.Next(0); r.ID != want {
				t.Fatalf("%s popped %d, want %d", s.Name(), r.ID, want)
			}
		}
	}
}

// A batch request with a weight > 1 yields to an interactive request of
// equal (or moderately larger) JCT, in the heap scheduler and the sweep
// identically; weight 1 (default) stays class-blind.
func TestClassWeightsDeprioritizeBatch(t *testing.T) {
	mk := func() []*Request {
		batch := req(1, 100, 0)
		batch.Class = ClassBatch
		inter := req(2, 150, 0) // longer → larger JCT, but interactive
		return []*Request{batch, inter}
	}
	for _, tc := range []struct {
		weights map[Class]float64
		want    []int64
	}{
		{nil, []int64{1, 2}},                                // class-blind: shorter batch first
		{map[Class]float64{ClassBatch: 2}, []int64{2, 1}},   // 2·100 > 150: interactive first
		{map[Class]float64{ClassBatch: 1.2}, []int64{1, 2}}, // 1.2·100 < 150: still batch first
	} {
		heap := NewCalibrated(lenJCT, 0)
		swp := NewCalibratedSweep(lenJCT, 0)
		if tc.weights != nil {
			heap.SetClassWeights(tc.weights)
			swp.SetClassWeights(tc.weights)
		}
		for _, s := range []Scheduler{heap, swp} {
			for _, r := range mk() {
				s.Enqueue(r)
			}
			for _, want := range tc.want {
				if r := s.Next(0); r.ID != want {
					t.Fatalf("%s with weights %v popped %d, want %d", s.Name(), tc.weights, r.ID, want)
				}
			}
		}
	}
}

func TestSetClassWeightsRejectsBadInput(t *testing.T) {
	c := NewCalibrated(lenJCT, 0)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("non-positive weight accepted")
			}
		}()
		c.SetClassWeights(map[Class]float64{ClassBatch: 0})
	}()
	c.Enqueue(req(1, 10, 0))
	defer func() {
		if recover() == nil {
			t.Fatal("SetClassWeights accepted with requests waiting")
		}
	}()
	c.SetClassWeights(map[Class]float64{ClassBatch: 2})
}

func TestParseClass(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Class
	}{{"", ClassInteractive}, {"interactive", ClassInteractive}, {"batch", ClassBatch}} {
		got, err := ParseClass(tc.in)
		if err != nil || got != tc.want {
			t.Fatalf("ParseClass(%q) = %v, %v", tc.in, got, err)
		}
	}
	if _, err := ParseClass("bulk"); err == nil {
		t.Fatal("unknown class accepted")
	}
	if ClassInteractive.String() != "interactive" || ClassBatch.String() != "batch" {
		t.Fatal("class labels drifted")
	}
}

func TestSetWatchRejectsWaitingRequests(t *testing.T) {
	c := NewCalibrated(lenJCT, 0)
	c.Enqueue(req(1, 10, 0))
	defer func() {
		if recover() == nil {
			t.Fatal("SetWatch accepted with requests waiting")
		}
	}()
	c.SetWatch(func(r *Request) Watch { return Watch{} })
}

func TestNilJCTPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("nil JCT accepted")
		}
	}()
	NewSRJF(nil)
}

// Property: every scheduler returns each enqueued request exactly once.
func TestSchedulersConserveRequests(t *testing.T) {
	f := func(lens []uint16) bool {
		if len(lens) == 0 {
			return true
		}
		mks := func() []*Request {
			rs := make([]*Request, len(lens))
			for i, l := range lens {
				rs[i] = req(int64(i), int(l%5000)+1, float64(i))
			}
			return rs
		}
		for _, s := range []Scheduler{NewFIFO(), NewSRJF(lenJCT), NewCalibrated(lenJCT, 500), NewCalibratedSweep(lenJCT, 500)} {
			seen := make(map[int64]bool)
			for _, r := range mks() {
				s.Enqueue(r)
			}
			for i := 0; i < len(lens); i++ {
				r := s.Next(float64(1000 + i))
				if r == nil || seen[r.ID] {
					return false
				}
				seen[r.ID] = true
			}
			if s.Next(1e9) != nil || s.Len() != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestSchedulerNames(t *testing.T) {
	for _, s := range []Scheduler{NewFIFO(), NewSRJF(lenJCT), NewCalibrated(lenJCT, 500), NewCalibratedSweep(lenJCT, 500)} {
		if s.Name() == "" {
			t.Fatal("empty scheduler name")
		}
	}
}

// TestHashIndexEmptiedOnDrain: once the last waiter leaves, no hash is
// still indexed — including hashes several requests watch, and requests
// watching one hash or none.
func TestHashIndexEmptiedOnDrain(t *testing.T) {
	c := NewCalibrated(lenJCT, 500)
	c.SetWatch(func(r *Request) Watch {
		switch r.ID % 3 {
		case 0:
			return Watch{}
		case 1:
			return Watch{0, uint64(r.ID)}
		}
		return Watch{1 << 40, uint64(r.ID)}
	})
	for id := int64(1); id <= 8; id++ {
		c.Enqueue(req(id, 10, 0))
	}
	for c.Next(1) != nil {
	}
	if len(c.idx.slot) != 0 {
		t.Fatalf("%d hashes still indexed after draining", len(c.idx.slot))
	}
}
