package sched_test

// Equivalence oracle for the incremental Algorithm-1 scheduler: across
// seeded randomized workloads with prefix sharing, cache churn, LRU
// evictions, reservation pressure, pin churn and host offloading, the
// indexed-heap Calibrated must emit a dispatch order byte-identical to
// the reference full-sweep implementation driven against an identical
// twin cache.

import (
	"math/rand"
	"testing"

	"repro/internal/engine"
	"repro/internal/kvcache"
	"repro/internal/sched"
)

const eqBlockTokens = 16

// chainOf returns the request's memoized block-hash chain.
func chainOf(r *sched.Request) []uint64 {
	return engine.HashesOf(r, eqBlockTokens)
}

// missJCT estimates JCT as scaled cache-miss tokens against m, like the
// paper's proxy estimator.
func missJCT(m *kvcache.Manager) sched.JCTFunc {
	return func(r *sched.Request) float64 {
		cached := m.PeekH(chainOf(r))
		if cached > r.Len() {
			cached = r.Len()
		}
		return 0.01 * float64(r.Len()-cached)
	}
}

// eqCase shapes one family of equivalence workloads.
type eqCase struct {
	name string
	// users share prefixes of up to maxShared blocks; each request adds
	// a unique tail of 1–maxTail blocks.
	users, maxShared, maxTail int
	capBlocks                 int // GPU-tier cache size in blocks
	// drainEvery > 0 dispatches the queue to empty every drainEvery
	// operations, then refills it.
	drainEvery int
}

func TestIncrementalCalibratedMatchesSweep(t *testing.T) {
	for _, tc := range []eqCase{
		// Short chains and a tight cache: constant eviction.
		{name: "churn", users: 6, maxShared: 8, maxTail: 8, capBlocks: 48},
		// Few users with long shared chains: every shared hash has many
		// waiters, so dispatches remove entries from the middle of its
		// waiter list.
		{name: "long-shared", users: 2, maxShared: 96, maxTail: 4, capBlocks: 256},
		// Long chains drained to empty and refilled: the index outgrows
		// what a drained index keeps, so each drain releases it mid-run.
		{name: "drain-refill", users: 3, maxShared: 64, maxTail: 16, capBlocks: 192, drainEvery: 150},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for seed := int64(0); seed < 10; seed++ {
				runIncrementalVsSweep(t, tc, seed)
			}
		})
	}
}

// runIncrementalVsSweep drives Calibrated and CalibratedSweep through one
// seeded operation sequence against twin caches and fails on the first
// differing dispatch.
func runIncrementalVsSweep(t *testing.T, tc eqCase, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	mkMgr := func() *kvcache.Manager {
		m, err := kvcache.New(kvcache.Config{
			BlockTokens:       eqBlockTokens,
			BytesPerToken:     1,
			CapacityBytes:     int64(tc.capBlocks) * eqBlockTokens,
			HostCapacityBytes: int64(tc.capBlocks) * 8 / 3 * eqBlockTokens, // §9 offload tier enabled
		})
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	// Twin caches driven with identical operation sequences; the
	// incremental scheduler additionally receives mInc's change feed.
	// Half the seeds run class-weighted (batch yields to interactive):
	// the heap-vs-sweep equivalence must hold with SLO class weights
	// folded into the key exactly as in the class-blind default.
	mInc, mSweep := mkMgr(), mkMgr()
	inc := sched.NewCalibrated(missJCT(mInc), 500)
	engine.AttachIncremental(inc, mInc)
	sweep := sched.NewCalibratedSweep(missJCT(mSweep), 500)
	if seed%2 == 1 {
		weights := map[sched.Class]float64{sched.ClassBatch: 2 + float64(seed)}
		inc.SetClassWeights(weights)
		sweep.SetClassWeights(weights)
	}

	nextID := int64(1)
	now := 0.0
	mkReq := func() *sched.Request {
		user := rng.Intn(tc.users)
		shared := rng.Intn(tc.maxShared) * eqBlockTokens
		tail := (rng.Intn(tc.maxTail) + 1) * eqBlockTokens
		toks := make([]uint64, 0, shared+tail)
		for i := 0; i < shared; i++ {
			toks = append(toks, uint64(user+1)<<40|uint64(i))
		}
		for i := 0; i < tail; i++ {
			toks = append(toks, uint64(nextID)<<16|uint64(i))
		}
		class := sched.ClassInteractive
		if rng.Intn(3) == 0 {
			class = sched.ClassBatch
		}
		r := &sched.Request{ID: nextID, UserID: user, Tokens: toks, ArrivalTime: now, Class: class}
		nextID++
		return r
	}
	both := func(op func(m *kvcache.Manager) func()) (relInc, relSweep func()) {
		return op(mInc), op(mSweep)
	}
	dispatch := func() bool {
		a := inc.Next(now)
		b := sweep.Next(now)
		switch {
		case a == nil && b == nil:
			return false
		case a == nil || b == nil || a.ID != b.ID:
			t.Fatalf("%s seed %d t=%.3f: incremental dispatched %v, sweep %v", tc.name, seed, now, a, b)
		}
		// Completion: cache what was computed, in both caches.
		mInc.InsertH(chainOf(a), now)
		mSweep.InsertH(chainOf(a), now)
		return true
	}

	var releases [][2]func() // open reservations/pins, mirrored pairwise
	for op := 0; op < 800; op++ {
		now += rng.Float64() * 0.3
		if tc.drainEvery > 0 && op%tc.drainEvery == tc.drainEvery-1 {
			for dispatch() {
			}
		}
		switch rng.Intn(12) {
		case 0, 1, 2, 3, 4:
			r := mkReq()
			inc.Enqueue(r)
			sweep.Enqueue(r)
		case 5, 6, 7:
			dispatch()
		case 8: // foreign completion: insert a never-scheduled chain
			h := chainOf(mkReq())
			mInc.InsertH(h, now)
			mSweep.InsertH(h, now)
		case 9: // reservation pressure forces evictions
			need := int64(rng.Intn(tc.capBlocks/2) * eqBlockTokens)
			a, b := both(func(m *kvcache.Manager) func() {
				_, rel := m.Reserve(need)
				return rel
			})
			releases = append(releases, [2]func(){a, b})
		case 10: // pin churn (membership-neutral: must not rekey)
			h := chainOf(mkReq())
			a, b := both(func(m *kvcache.Manager) func() {
				_, rel := m.PinH(h, now)
				return rel
			})
			releases = append(releases, [2]func(){a, b})
		case 11:
			if len(releases) > 0 {
				i := rng.Intn(len(releases))
				releases[i][0]()
				releases[i][1]()
				releases = append(releases[:i], releases[i+1:]...)
			} else {
				mInc.EvictAll()
				mSweep.EvictAll()
			}
		}
		if inc.Len() != sweep.Len() {
			t.Fatalf("%s seed %d: queue lengths diverged (%d vs %d)", tc.name, seed, inc.Len(), sweep.Len())
		}
	}
	for _, rel := range releases {
		rel[0]()
		rel[1]()
	}
	for dispatch() {
		now += rng.Float64() * 0.3
	}
	if err := mInc.CheckInvariants(); err != nil {
		t.Fatalf("%s seed %d: %v", tc.name, seed, err)
	}
}

// TestOnCacheChangeZeroAlloc pins the rekey path at zero allocations once
// warm: the hash index is looked up, not ranged over, and rekeys are
// deduplicated by an epoch stamp rather than a per-call set.
func TestOnCacheChangeZeroAlloc(t *testing.T) {
	mgr, err := kvcache.New(kvcache.Config{
		BlockTokens:   eqBlockTokens,
		BytesPerToken: 1,
		CapacityBytes: 1024 * eqBlockTokens,
	})
	if err != nil {
		t.Fatal(err)
	}
	c := sched.NewCalibrated(missJCT(mgr), 500)
	engine.AttachIncremental(c, mgr)
	var changed []uint64
	for i := 0; i < 32; i++ {
		toks := make([]uint64, 0, 24*eqBlockTokens)
		for j := 0; j < 16*eqBlockTokens; j++ {
			toks = append(toks, uint64(i%4+1)<<40|uint64(j)) // 4 users' shared prefixes
		}
		for j := 0; j < 8*eqBlockTokens; j++ {
			toks = append(toks, uint64(i+1)<<16|uint64(j))
		}
		r := &sched.Request{ID: int64(i), Tokens: toks}
		c.Enqueue(r)
		if i < 4 {
			changed = append(changed, chainOf(r)...) // every shared block, and 4 tails
		}
	}
	allocs := testing.AllocsPerRun(100, func() {
		c.OnCacheChange(changed[:len(changed)/2], changed[len(changed)/2:])
	})
	if allocs != 0 {
		t.Fatalf("OnCacheChange allocates %.1f times per call, want 0", allocs)
	}
}
