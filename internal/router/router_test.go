package router

import (
	"errors"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/hw"
	"repro/internal/model"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/workload"
)

// countingEngine wraps an engine and records which users it received, so
// tests can observe routing decisions without the router exposing them.
type countingEngine struct {
	engine.Engine
	users  map[int]int // user -> requests received
	tokens int64
}

func (c *countingEngine) Submit(r *sched.Request) {
	if c.users == nil {
		c.users = make(map[int]int)
	}
	c.users[r.UserID]++
	c.tokens += int64(r.Len())
	c.Engine.Submit(r)
}

// testCluster builds n PrefillOnly instances on one sim with a completion
// chain into the router (wired after New via the returned hook).
func testCluster(t *testing.T, s *sim.Sim, n int) ([]*countingEngine, []engine.Engine, *func(engine.Record)) {
	t.Helper()
	var chain func(engine.Record)
	cfg := engine.Config{
		Model: model.Llama31_8B(), GPU: hw.L4(), Sim: s, ProfileMaxLen: 4000,
		OnComplete: func(rec engine.Record) {
			if chain != nil {
				chain(rec)
			}
		},
	}
	wrapped := make([]*countingEngine, n)
	engines := make([]engine.Engine, n)
	for i := 0; i < n; i++ {
		e, err := core.New(cfg, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		wrapped[i] = &countingEngine{Engine: e}
		engines[i] = wrapped[i]
	}
	return wrapped, engines, &chain
}

func mkReq(id int64, user, tokens int) *sched.Request {
	toks := make([]uint64, tokens)
	for i := range toks {
		toks[i] = uint64(user)<<32 | uint64(i)
	}
	return &sched.Request{ID: id, UserID: user, Tokens: toks}
}

// mkPostReq builds a request with a per-user shared prefix and a fresh
// per-request suffix, like the post-recommendation workload.
func mkPostReq(id int64, user, prefix, suffix int) *sched.Request {
	toks := make([]uint64, 0, prefix+suffix)
	for i := 0; i < prefix; i++ {
		toks = append(toks, uint64(user)<<32|uint64(i))
	}
	for i := 0; i < suffix; i++ {
		toks = append(toks, uint64(id)<<40|uint64(user)<<32|uint64(i))
	}
	return &sched.Request{ID: id, UserID: user, Tokens: toks}
}

func TestCheckIdleReportsLeakedAccounting(t *testing.T) {
	var s sim.Sim
	_, engines, chain := testCluster(t, &s, 2)
	rt, err := New(Config{}, engines...)
	if err != nil {
		t.Fatal(err)
	}
	*chain = rt.Completed
	r := mkPostReq(1, 3, 512, 64)
	if err := rt.Submit(r); err != nil {
		t.Fatal(err)
	}
	if err := rt.CheckIdle(); err == nil {
		t.Fatal("CheckIdle passed with a request in flight")
	}
	s.Run()
	if err := rt.CheckIdle(); err != nil {
		t.Fatalf("after the request completed: %v", err)
	}
	// Each leak on its own, on an instance with nothing in flight.
	st := rt.instances[1]
	for _, leak := range []struct {
		name string
		make func()
	}{
		{"queued request", func() { st.load.QueuedRequests = 1 }},
		{"queued tokens", func() { st.load.QueuedTokens = 16 }},
		{"backlog", func() { st.load.BacklogSeconds = 2e-9 }},
		{"negative backlog", func() { st.load.BacklogSeconds = -2e-9 }},
		{"class backlog", func() { st.load.ClassBacklogSeconds[sched.ClassBatch] = 2e-9 }},
		{"pending chain", func() { st.pending.add(&r.Chain) }},
	} {
		saved := st.load
		leak.make()
		if err := rt.CheckIdle(); err == nil {
			t.Errorf("CheckIdle passed with a leaked %s", leak.name)
		}
		st.load, st.pending = saved, chainSet{}
	}
	st.load.BacklogSeconds = 1e-12 // rounding residue, not a leak
	if err := rt.CheckIdle(); err != nil {
		t.Fatalf("a 1e-12 s backlog residue: %v", err)
	}
}

func TestUserHashStickyAndStateless(t *testing.T) {
	var s sim.Sim
	wrapped, engines, chain := testCluster(t, &s, 3)
	rt, err := New(Config{Policy: UserHash{}}, engines...)
	if err != nil {
		t.Fatal(err)
	}
	*chain = rt.Completed

	id := int64(0)
	for round := 0; round < 3; round++ {
		for user := 0; user < 30; user++ {
			id++
			if err := rt.Submit(mkReq(id, user, 500)); err != nil {
				t.Fatal(err)
			}
		}
		s.Run()
	}
	// Every user must land on exactly one instance across all rounds.
	seen := make(map[int]int)
	for i, w := range wrapped {
		for user := range w.users {
			if prev, ok := seen[user]; ok && prev != i {
				t.Fatalf("user %d routed to instances %d and %d", user, prev, i)
			}
			seen[user] = i
		}
	}
	// The hash must spread users: with 30 users on 3 instances, no
	// instance should be empty.
	for i, w := range wrapped {
		if len(w.users) == 0 {
			t.Fatalf("instance %d received no users", i)
		}
	}
	if rt.InFlight() != 0 {
		t.Fatalf("in-flight after drain: %d", rt.InFlight())
	}
	for i, l := range rt.Loads() {
		if l.QueuedRequests != 0 || l.QueuedTokens != 0 || l.BacklogSeconds != 0 {
			t.Fatalf("instance %d load not drained: %+v", i, l)
		}
		if l.RoutedRequests == 0 {
			t.Fatalf("instance %d cumulative count empty", i)
		}
	}
}

// firstSeenRoute returns a function that routes one request of a user
// through p on an n-instance view and returns the pick.
func firstSeenRoute(p *FirstSeen, n int) func(user int) int {
	v := &benchView{loads: make([]Load, n)}
	r := &sched.Request{}
	return func(user int) int {
		r.UserID = user
		return p.Pick(r, v)
	}
}

func TestRoutingStickyAndRoundRobin(t *testing.T) {
	route := firstSeenRoute(&FirstSeen{}, 2)
	// Users assigned round robin in first-seen order; repeat users sticky.
	if route(10) != 0 || route(20) != 1 || route(30) != 0 {
		t.Fatal("round-robin assignment broken")
	}
	for i := 0; i < 5; i++ {
		if route(20) != 1 {
			t.Fatal("user routing not sticky")
		}
	}
}

func TestTrackedUserBound(t *testing.T) {
	p := &FirstSeen{}
	route := firstSeenRoute(p, 2)
	if err := p.setMaxTrackedUsers(0); err == nil {
		t.Fatal("non-positive cap accepted")
	}
	if err := p.setMaxTrackedUsers(3); err != nil {
		t.Fatal(err)
	}
	// A million distinct users must never grow the table past the cap.
	for u := 0; u < 1_000_000; u++ {
		route(u)
		if len(p.byUser) > 3 {
			t.Fatalf("tracked users %d exceeds cap after user %d", len(p.byUser), u)
		}
	}
	if len(p.byUser) != 3 {
		t.Fatalf("tracked users = %d, want 3", len(p.byUser))
	}
	// The most recent users are still sticky.
	last := 999_999
	idx := route(last)
	for i := 0; i < 5; i++ {
		if route(last) != idx {
			t.Fatal("recent user lost stickiness")
		}
	}
	// Shrinking the cap evicts immediately.
	if err := p.setMaxTrackedUsers(1); err != nil {
		t.Fatal(err)
	}
	if len(p.byUser) != 1 {
		t.Fatalf("tracked users = %d after shrinking cap to 1", len(p.byUser))
	}
}

// Regression for the `order = order[1:]` retention bug: under user churn
// at the tracked-user cap, Pick appends while evictOldest pops. The order
// ring's backing array must stay bounded by the cap, not by the total
// users ever routed.
func TestOrderRingBoundedUnderChurnAtCap(t *testing.T) {
	p := &FirstSeen{}
	route := firstSeenRoute(p, 1)
	const cap = 1000
	if err := p.setMaxTrackedUsers(cap); err != nil {
		t.Fatal(err)
	}
	// 10x the cap of distinct users: every pick beyond the cap evicts one
	// and appends one.
	for u := 0; u < 10*cap; u++ {
		route(u)
	}
	if len(p.byUser) != cap {
		t.Fatalf("tracked users = %d, want %d", len(p.byUser), cap)
	}
	if p.order.Len() != cap {
		t.Fatalf("order ring holds %d entries, want %d", p.order.Len(), cap)
	}
	if p.order.Cap() > 2*cap {
		t.Fatalf("order ring backing array holds %d slots after 10x-cap churn (cap %d)",
			p.order.Cap(), cap)
	}
}

func TestLeastLoadedBalancesSingleHotUser(t *testing.T) {
	var s sim.Sim
	wrapped, engines, chain := testCluster(t, &s, 4)
	rt, err := New(Config{Policy: LeastLoaded{}}, engines...)
	if err != nil {
		t.Fatal(err)
	}
	*chain = rt.Completed

	// One hot user floods the cluster before anything completes: backlog
	// accounting must spread the burst evenly.
	for id := int64(1); id <= 32; id++ {
		if err := rt.Submit(mkReq(id, 7, 1000)); err != nil {
			t.Fatal(err)
		}
	}
	for i, w := range wrapped {
		if w.users[7] != 8 {
			t.Fatalf("instance %d got %d of the hot user's requests, want 8", i, w.users[7])
		}
	}
	s.Run()
}

// TestRouterUsesEngineEstimator: the router prices an instance's backlog
// with the engine's own calibrated JCT proxy. The engines go in
// unwrapped, because countingEngine hides Estimator and leaves the router
// on its fallback price. If core.Engine stopped satisfying
// estimatorEngine, the router would calibrate its own proxy from the cost
// model at estimatorProbeLen instead of the engine's profile length, and
// the backlog below would change.
func TestRouterUsesEngineEstimator(t *testing.T) {
	var s sim.Sim
	cfg := engine.Config{Model: model.Llama31_8B(), GPU: hw.L4(), Sim: &s, ProfileMaxLen: 16000}
	engines := make([]*core.Engine, 2)
	for i := range engines {
		e, err := core.New(cfg, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		engines[i] = e
	}
	rt, err := New(Config{Policy: LeastLoaded{}}, engines[0], engines[1])
	if err != nil {
		t.Fatal(err)
	}
	r := mkReq(1, 7, 6000)
	if err := rt.Submit(r); err != nil {
		t.Fatal(err)
	}
	want := engines[0].Estimator().Estimate(r.Len(), 0)
	probe := resolveEstimator(engines[0].Serial).Estimate(r.Len(), 0)
	if probe == want || fallbackSecondsPerToken*float64(r.Len()) == want {
		t.Fatalf("engine proxy prices %g s, indistinguishable from the router's own calibrations", want)
	}
	var got float64
	for _, l := range rt.Loads() {
		got += l.BacklogSeconds
	}
	if got != want {
		t.Fatalf("cold request's backlog = %g s, want the engine proxy's %g s", got, want)
	}
}

func TestAffinityLoadKeepsHomeUntilBacklogged(t *testing.T) {
	var s sim.Sim
	wrapped, engines, chain := testCluster(t, &s, 2)
	rt, err := New(Config{Policy: AffinityLoad{}}, engines...)
	if err != nil {
		t.Fatal(err)
	}
	*chain = rt.Completed

	user := 3
	home := homeOf(user, 2)
	// Warm the home cache: one request, drained. Every request shares a
	// 1500-token profile prefix and adds a fresh 500-token suffix.
	if err := rt.Submit(mkPostReq(1, user, 1500, 500)); err != nil {
		t.Fatal(err)
	}
	s.Run()
	if wrapped[home].users[user] != 1 {
		t.Fatalf("warm request not on home instance %d", home)
	}
	// Low load: repeated requests stay home (cache affinity).
	for id := int64(2); id <= 5; id++ {
		if err := rt.Submit(mkPostReq(id, user, 1500, 500)); err != nil {
			t.Fatal(err)
		}
		s.Run()
	}
	if got := wrapped[home].users[user]; got != 5 {
		t.Fatalf("home instance served %d requests, want all 5", got)
	}
	// Flood without draining: once home's backlog exceeds the cache
	// saving, the policy must spill to the other instance.
	for id := int64(6); id <= 40; id++ {
		if err := rt.Submit(mkPostReq(id, user, 1500, 500)); err != nil {
			t.Fatal(err)
		}
	}
	if wrapped[1-home].users[user] == 0 {
		t.Fatal("affinity policy never spilled from a backlogged home")
	}
	s.Run()
}

func TestAdmissionControlRejects(t *testing.T) {
	var s sim.Sim
	_, engines, chain := testCluster(t, &s, 2)
	rt, err := New(Config{Policy: LeastLoaded{}, MaxBacklogSeconds: 1.0}, engines...)
	if err != nil {
		t.Fatal(err)
	}
	*chain = rt.Completed

	rejected := 0
	for id := int64(1); id <= 200; id++ {
		err := rt.Submit(mkReq(id, int(id), 2000))
		if err == nil {
			continue
		}
		var rej *RejectError
		if !errors.As(err, &rej) {
			t.Fatalf("want *RejectError, got %T: %v", err, err)
		}
		if rej.BoundSeconds != 1.0 || rej.BacklogSeconds+rej.EstimateSeconds <= rej.BoundSeconds {
			t.Fatalf("inconsistent rejection: %+v", rej)
		}
		rejected++
	}
	if rejected == 0 {
		t.Fatal("no request was rejected under a 1s backlog bound")
	}
	c := rt.Admission().Snapshot()[sched.ClassInteractive]
	if c.Rejected != int64(rejected) || c.Accepted != int64(200-rejected) {
		t.Fatalf("admission counters %+v, want accepted=%d rejected=%d", c, 200-rejected, rejected)
	}
	s.Run()
	// After the backlog drains, admission opens again.
	if err := rt.Submit(mkReq(1000, 1, 2000)); err != nil {
		t.Fatalf("post-drain submit rejected: %v", err)
	}
	s.Run()
}

// Per-class admission: with a batch budget below the interactive bound,
// batch requests are shed at a backlog depth where interactive requests
// are still admitted — batch load sheds first, interactive is protected.
func TestClassBudgetsShedBatchFirst(t *testing.T) {
	var s sim.Sim
	_, engines, chain := testCluster(t, &s, 1)
	rt, err := New(Config{
		Policy:            LeastLoaded{},
		MaxBacklogSeconds: 10,
		ClassBacklogSeconds: map[sched.Class]float64{
			sched.ClassBatch: 2,
		},
	}, engines...)
	if err != nil {
		t.Fatal(err)
	}
	*chain = rt.Completed

	mkClass := func(id int64, class sched.Class) *sched.Request {
		r := mkReq(id, int(id), 2000)
		r.Class = class
		return r
	}
	// Fill backlog past the batch budget with interactive work.
	id := int64(0)
	for rt.Loads()[0].BacklogSeconds <= 2 {
		id++
		if err := rt.Submit(mkClass(id, sched.ClassInteractive)); err != nil {
			t.Fatalf("interactive submit below its bound rejected: %v", err)
		}
	}
	// Batch is now over ITS budget while interactive still has headroom.
	id++
	err = rt.Submit(mkClass(id, sched.ClassBatch))
	var rej *RejectError
	if !errors.As(err, &rej) {
		t.Fatalf("batch request above its budget not rejected (err %v)", err)
	}
	if rej.Class != sched.ClassBatch || rej.BoundSeconds != 2 {
		t.Fatalf("reject carries class %v bound %g, want batch/2", rej.Class, rej.BoundSeconds)
	}
	id++
	if err := rt.Submit(mkClass(id, sched.ClassInteractive)); err != nil {
		t.Fatalf("interactive rejected while under its own bound: %v", err)
	}
	// Per-class tallies: all rejects are batch, no interactive shed.
	adm := rt.Admission().Snapshot()
	if c := adm[sched.ClassBatch]; c.Rejected != 1 || c.Accepted != 0 {
		t.Fatalf("batch tally %+v", c)
	}
	if c := adm[sched.ClassInteractive]; c.Rejected != 0 || c.Accepted != id-1 {
		t.Fatalf("interactive tally %+v (id %d)", c, id)
	}
	// Per-class backlog split sums to the aggregate and is all interactive.
	l := rt.Loads()[0]
	if l.ClassBacklog(sched.ClassBatch) != 0 {
		t.Fatalf("batch backlog %g with no batch admitted", l.ClassBacklog(sched.ClassBatch))
	}
	if got := l.ClassBacklog(sched.ClassInteractive); math.Abs(got-l.BacklogSeconds) > 1e-9 {
		t.Fatalf("interactive backlog %g != aggregate %g", got, l.BacklogSeconds)
	}
	s.Run()
	for _, l := range rt.Loads() {
		for c, b := range l.ClassBacklogSeconds {
			if b != 0 {
				t.Fatalf("class %d backlog %g after drain", c, b)
			}
		}
	}
}

// TestAdmissionTallyCells submits one request per case to a fresh
// one-instance router. The decision lands in exactly one cell of the
// request's class: admitted, or shed for backlog, class budget or no
// capacity, as the RejectError says. Snapshot sums the class's sheds
// over the reasons, and Admission returns a copy.
func TestAdmissionTallyCells(t *testing.T) {
	batchBudget := Config{MaxBacklogSeconds: 100, ClassBacklogSeconds: map[sched.Class]float64{sched.ClassBatch: 1e-9}}
	const admitted = -1
	for _, tc := range []struct {
		name  string
		cfg   Config
		class sched.Class
		drain bool // drain the instance first, leaving nothing routable
		cell  int  // ShedReasons index, or admitted
	}{
		{"admitted", Config{}, sched.ClassInteractive, false, admitted},
		{"admitted-batch", Config{}, sched.ClassBatch, false, admitted},
		{"backlog", Config{MaxBacklogSeconds: 1e-9}, sched.ClassInteractive, false, shedBacklog},
		{"class-budget", batchBudget, sched.ClassBatch, false, shedClassBudget},
		{"class-budget-spares-interactive", batchBudget, sched.ClassInteractive, false, admitted},
		{"no-capacity", Config{}, sched.ClassBatch, true, shedNoCapacity},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var s sim.Sim
			_, engines, _ := testCluster(t, &s, 1)
			rt, err := New(tc.cfg, engines...)
			if err != nil {
				t.Fatal(err)
			}
			if tc.drain {
				if err := rt.Drain(0); err != nil {
					t.Fatal(err)
				}
			}
			r := mkReq(1, 1, 2000)
			r.Class = tc.class
			err = rt.Submit(r)
			var rej *RejectError
			if errors.As(err, &rej) != (tc.cell != admitted) {
				t.Fatalf("Submit = %v", err)
			}
			var want Admission
			var wantSnap [sched.NumClasses]Decisions
			if tc.cell == admitted {
				want.Admitted[tc.class], wantSnap[tc.class].Accepted = 1, 1
			} else {
				if rej.Reason != ShedReasons[tc.cell] {
					t.Fatalf("shed for %q, want %q", rej.Reason, ShedReasons[tc.cell])
				}
				want.Shed[tc.class][tc.cell], wantSnap[tc.class].Rejected = 1, 1
			}
			got := rt.Admission()
			if got != want {
				t.Fatalf("tally %+v, want %+v", got, want)
			}
			if snap := got.Snapshot(); snap != wantSnap {
				t.Fatalf("snapshot %+v, want %+v", snap, wantSnap)
			}
			got.Admitted[tc.class] += 5
			if rt.Admission() != want {
				t.Fatal("the returned tally aliases the router's")
			}
		})
	}
}

func TestPolicyByName(t *testing.T) {
	for name, want := range map[string]string{
		"userhash":    "userhash",
		"leastloaded": "leastloaded",
		"affinity":    "affinity",
	} {
		p, err := PolicyByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if p.Name() != want {
			t.Fatalf("PolicyByName(%q).Name() = %q", name, p.Name())
		}
	}
	if _, err := PolicyByName("round-robin"); err == nil {
		t.Fatal("unknown policy accepted")
	}
}

func TestDuplicateRequestIDRejected(t *testing.T) {
	var s sim.Sim
	_, engines, chain := testCluster(t, &s, 2)
	rt, err := New(Config{Policy: LeastLoaded{}}, engines...)
	if err != nil {
		t.Fatal(err)
	}
	*chain = rt.Completed
	if err := rt.Submit(mkReq(1, 1, 500)); err != nil {
		t.Fatal(err)
	}
	if err := rt.Submit(mkReq(1, 2, 500)); err == nil {
		t.Fatal("duplicate in-flight request ID accepted")
	}
	s.Run()
	// Once the first completes, the ID may be reused.
	if err := rt.Submit(mkReq(1, 3, 500)); err != nil {
		t.Fatalf("post-completion ID reuse rejected: %v", err)
	}
	s.Run()
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("empty router accepted")
	}
	if _, err := New(Config{}, nil); err == nil {
		t.Error("nil instance accepted")
	}
	var s sim.Sim
	_, engines, _ := testCluster(t, &s, 1)
	if _, err := New(Config{MaxBacklogSeconds: -1}, engines...); err == nil {
		t.Error("negative backlog bound accepted")
	}
}

// balanceRatio is max/min cumulative routed tokens across instances.
func balanceRatio(rt *Router) float64 {
	minTok, maxTok := int64(math.MaxInt64), int64(0)
	for _, l := range rt.Loads() {
		if l.RoutedTokens < minTok {
			minTok = l.RoutedTokens
		}
		if l.RoutedTokens > maxTok {
			maxTok = l.RoutedTokens
		}
	}
	if minTok <= 0 {
		return math.Inf(1)
	}
	return float64(maxTok) / float64(minTok)
}

// runChurn drives a Zipf-skewed population with users arriving and
// departing (every request scheduled at its Poisson arrival time) through
// the given policy and returns (router, per-instance user sets).
func runChurn(t *testing.T, pol Policy) (*Router, []*countingEngine) {
	t.Helper()
	var s sim.Sim
	wrapped, engines, chain := testCluster(t, &s, 4)
	rt, err := New(Config{Policy: pol}, engines...)
	if err != nil {
		t.Fatal(err)
	}
	*chain = rt.Completed

	ds := workload.Skewed(workload.SkewedConfig{
		Users: 48, Requests: 160, ProfileMean: 1500, ProfileStd: 400,
		ProfileMin: 800, ProfileMax: 2500, Seed: 7,
	})
	arrivals, err := workload.AssignPoissonArrivals(ds, 12, 7)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range arrivals {
		a := a
		s.At(a.Time, func() {
			if err := rt.Submit(a.Req); err != nil {
				t.Errorf("unexpected rejection: %v", err)
			}
		})
	}
	s.Run()
	if rt.InFlight() != 0 {
		t.Fatalf("in-flight after drain: %d", rt.InFlight())
	}
	return rt, wrapped
}

// TestChurnLocalityAndBalance is the user-churn comparison: under the same
// Zipf-skewed arrivals, UserHash must keep every user's requests on one
// instance (prefix locality), while AffinityLoad must keep the cluster
// materially better balanced than the load-blind baseline.
func TestChurnLocalityAndBalance(t *testing.T) {
	rtHash, wrappedHash := runChurn(t, UserHash{})
	for i, w := range wrappedHash {
		for user := range w.users {
			for j, other := range wrappedHash {
				if j != i && other.users[user] > 0 {
					t.Fatalf("userhash: user %d on instances %d and %d", user, i, j)
				}
			}
		}
	}

	rtAff, _ := runChurn(t, AffinityLoad{})
	hashRatio := balanceRatio(rtHash)
	affRatio := balanceRatio(rtAff)
	t.Logf("balance max/min routed tokens: userhash=%.2f affinity=%.2f", hashRatio, affRatio)
	if affRatio >= hashRatio {
		t.Fatalf("affinity balance %.2f not better than userhash %.2f", affRatio, hashRatio)
	}
	const bound = 4.0
	if affRatio > bound {
		t.Fatalf("affinity balance ratio %.2f exceeds bound %.1f on Zipf-skewed load", affRatio, bound)
	}
}
