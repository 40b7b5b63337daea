package fleet

import (
	"testing"

	"repro/internal/engine"
	"repro/internal/hw"
	"repro/internal/kvcache"
	"repro/internal/model"
	"repro/internal/sched"
)

// stubEngine is an engine the routing-table tests never submit to.
type stubEngine struct{}

func (stubEngine) Name() string            { return "stub" }
func (stubEngine) Submit(*sched.Request)   {}
func (stubEngine) GPUs() int               { return 1 }
func (stubEngine) Cache() *kvcache.Manager { return nil }

func stubs(n int) []engine.Engine {
	engines := make([]engine.Engine, n)
	for i := range engines {
		engines[i] = stubEngine{}
	}
	return engines
}

func TestRoutingStickyAndRoundRobin(t *testing.T) {
	c, err := newFirstSeen(stubs(2))
	if err != nil {
		t.Fatal(err)
	}
	// Users assigned round robin in first-seen order; repeat users sticky.
	if c.route(10) != 0 || c.route(20) != 1 || c.route(30) != 0 {
		t.Fatal("round-robin assignment broken")
	}
	for i := 0; i < 5; i++ {
		if c.route(20) != 1 {
			t.Fatal("user routing not sticky")
		}
	}
}

// TestSubmitRoutesByUser drives a §7.1 fleet end to end: user 0's two
// requests share an instance and queue behind each other, while user 1's
// request runs on the other instance without waiting.
func TestSubmitRoutesByUser(t *testing.T) {
	recs := map[int64]engine.Record{}
	f, err := New(Spec{
		Engine: PagedAttention, Model: model.Llama31_8B(), GPU: hw.L4(),
		ProfileMaxLen: 2000, Instances: 2,
		OnComplete: func(r engine.Record) { recs[r.Req.ID] = r },
	})
	if err != nil {
		t.Fatal(err)
	}
	mk := func(id int64, user int) *sched.Request {
		toks := make([]uint64, 1000)
		for i := range toks {
			toks[i] = uint64(user)<<32 | uint64(i)
		}
		return &sched.Request{ID: id, UserID: user, Tokens: toks}
	}
	f.SubmitAt(0, mk(1, 0))
	f.SubmitAt(0, mk(2, 1))
	f.SubmitAt(0, mk(3, 0))
	f.Run()
	if err := f.Check(3); err != nil {
		t.Fatal(err)
	}
	if recs[2].Start != 0 {
		t.Errorf("user 1's request waited until %g behind user 0's", recs[2].Start)
	}
	if recs[3].Start < recs[1].Finish {
		t.Errorf("user 0's second request started at %g, before its first finished at %g",
			recs[3].Start, recs[1].Finish)
	}
}

func TestTrackedUserBound(t *testing.T) {
	c, err := newFirstSeen(stubs(2))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.setMaxTrackedUsers(0); err == nil {
		t.Fatal("non-positive cap accepted")
	}
	if err := c.setMaxTrackedUsers(3); err != nil {
		t.Fatal(err)
	}
	// A million distinct users must never grow the table past the cap.
	for u := 0; u < 1_000_000; u++ {
		c.route(u)
		if len(c.byUser) > 3 {
			t.Fatalf("tracked users %d exceeds cap after user %d", len(c.byUser), u)
		}
	}
	if len(c.byUser) != 3 {
		t.Fatalf("tracked users = %d, want 3", len(c.byUser))
	}
	// The most recent users are still sticky.
	last := 999_999
	idx := c.route(last)
	for i := 0; i < 5; i++ {
		if c.route(last) != idx {
			t.Fatal("recent user lost stickiness")
		}
	}
	// Shrinking the cap evicts immediately.
	if err := c.setMaxTrackedUsers(1); err != nil {
		t.Fatal(err)
	}
	if len(c.byUser) != 1 {
		t.Fatalf("tracked users = %d after shrinking cap to 1", len(c.byUser))
	}
}

// Regression for the `order = order[1:]` retention bug: under user churn
// at the tracked-user cap, route appends while evictOldest pops. The order
// ring's backing array must stay bounded by the cap, not by the total
// users ever routed.
func TestOrderRingBoundedUnderChurnAtCap(t *testing.T) {
	c, err := newFirstSeen(stubs(1))
	if err != nil {
		t.Fatal(err)
	}
	const cap = 1000
	if err := c.setMaxTrackedUsers(cap); err != nil {
		t.Fatal(err)
	}
	// 10x the cap of distinct users: every route beyond the cap evicts one
	// and appends one.
	for u := 0; u < 10*cap; u++ {
		c.route(u)
	}
	if len(c.byUser) != cap {
		t.Fatalf("tracked users = %d, want %d", len(c.byUser), cap)
	}
	if c.order.Len() != cap {
		t.Fatalf("order ring holds %d entries, want %d", c.order.Len(), cap)
	}
	if c.order.Cap() > 2*cap {
		t.Fatalf("order ring backing array holds %d slots after 10x-cap churn (cap %d)",
			c.order.Cap(), cap)
	}
}

// TestNewRejectsEmptyFleet: neither the §7.1 frontend nor a fleet accepts
// an empty instance list, and the spec is validated before any profile
// run.
func TestNewRejectsEmptyFleet(t *testing.T) {
	if _, err := newFirstSeen(nil); err == nil {
		t.Error("empty §7.1 frontend accepted")
	}
	base := Spec{Model: model.Llama31_8B(), GPU: hw.L4(), ProfileMaxLen: 2000}
	if _, err := New(base); err == nil {
		t.Error("zero-instance fleet accepted")
	}
	bad := base
	bad.Instances, bad.Engine = 1, "warp-drive"
	if _, err := New(bad); err == nil {
		t.Error("unknown engine accepted")
	}
	bad = base
	bad.Instances = 1
	bad.Chaos.CrashRate = 1
	if _, err := New(bad); err == nil {
		t.Error("chaos without a router accepted")
	}
}
