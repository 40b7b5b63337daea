package router

// The hit estimate policies see: a block counts as hit on an instance when
// it is cached there or when a request already routed there will cache it
// (pending). hitTokens takes the longer of the two prefixes; these tests
// hold it to a block-by-block walk of their union.

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/engine"
	"repro/internal/kvcache"
	"repro/internal/sched"
	"repro/internal/sim"
)

// linearHit is the reference hit estimate: walk the request's chain while
// each block is cached or pending on the instance.
func linearHit(st *instanceState, r *sched.Request) int {
	c := st.eng.Cache()
	hit := 0
	for _, h := range engine.HashesOf(r, c.BlockTokens()) {
		if !c.HasBlock(h) && st.pendingBlocks[h] == 0 {
			break
		}
		hit += c.BlockTokens()
	}
	return hit
}

func TestInFlightPrefixCountsAsHit(t *testing.T) {
	var s sim.Sim
	_, engines, chain := testCluster(t, &s, 2)
	rt, err := New(Config{Policy: AffinityLoad{}}, engines...)
	if err != nil {
		t.Fatal(err)
	}
	*chain = rt.Completed

	// a and b share a 512-token (32-block) profile and differ after it.
	a, b := mkPostReq(1, 7, 512, 64), mkPostReq(2, 7, 512, 64)
	if err := rt.Submit(a); err != nil {
		t.Fatal(err)
	}
	home := rt.inflight[a.ID].instance
	hits := func() []int {
		v := rt.newView(b)
		out := make([]int, v.Instances())
		for i := range out {
			out[i] = v.HitTokens(i, b)
		}
		return out
	}
	for i, c := range []*kvcache.Manager{engines[0].Cache(), engines[1].Cache()} {
		if c.Len() != 0 {
			t.Fatalf("instance %d cached %d blocks before anything ran", i, c.Len())
		}
	}
	want := []int{0, 0}
	want[home] = 512
	if got := hits(); !slices.Equal(got, want) {
		t.Fatalf("with a in flight on instance %d, b's hits = %v, want %v", home, got, want)
	}

	// Completing a releases its pending blocks; nothing is cached yet, so
	// the hit is gone.
	rt.Completed(engine.Record{Req: a})
	if n := len(rt.byID[home].pendingBlocks); n != 0 {
		t.Fatalf("%d blocks still pending after a completed", n)
	}
	if got := hits(); !slices.Equal(got, []int{0, 0}) {
		t.Fatalf("after a completed, b's hits = %v, want none", got)
	}

	// Once the engine has run a, its cache serves the same prefix.
	s.Run()
	if got := hits(); !slices.Equal(got, want) {
		t.Fatalf("after a ran, b's hits = %v, want %v", got, want)
	}
}

// cacheOnlyEngine is an engine that only has a prefix cache: Submit does
// nothing, so a test controls the cache and the router's pending set
// separately.
type cacheOnlyEngine struct{ c *kvcache.Manager }

func (e *cacheOnlyEngine) Name() string            { return "cache-only" }
func (e *cacheOnlyEngine) Submit(*sched.Request)   {}
func (e *cacheOnlyEngine) GPUs() int               { return 1 }
func (e *cacheOnlyEngine) Cache() *kvcache.Manager { return e.c }

func TestHitTokensMatchesLinearWalk(t *testing.T) {
	const bt = 4
	// Twelve prompts over four users: a 3–8-block profile, then one of
	// three 1–3-block posts.
	var prompts [][]uint64
	for user := uint64(1); user <= 4; user++ {
		for post := uint64(1); post <= 3; post++ {
			var toks []uint64
			for i := uint64(0); i < (2+user+post%2)*bt; i++ {
				toks = append(toks, user<<32|i)
			}
			for i := uint64(0); i < post*bt; i++ {
				toks = append(toks, user<<32|post<<16|i)
			}
			prompts = append(prompts, toks)
		}
	}
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		m, err := kvcache.New(kvcache.Config{BlockTokens: bt, BytesPerToken: 1, CapacityBytes: int64(rng.Intn(24)+1) * bt})
		if err != nil {
			t.Fatal(err)
		}
		rt, err := New(Config{}, &cacheOnlyEngine{c: m})
		if err != nil {
			t.Fatal(err)
		}
		st := rt.instances[0]
		probes := make([]*sched.Request, len(prompts))
		for i, p := range prompts {
			probes[i] = &sched.Request{ID: int64(-i - 1), Tokens: p}
		}
		var inflight []*sched.Request
		for op := 0; op < 300; op++ {
			prompt := prompts[rng.Intn(len(prompts))]
			switch rng.Intn(5) {
			case 0, 1: // route a request: its whole chain becomes pending
				r := &sched.Request{ID: int64(op), Tokens: prompt}
				if err := rt.Submit(r); err != nil {
					t.Fatal(err)
				}
				inflight = append(inflight, r)
			case 2: // complete one: its chain stops being pending
				if len(inflight) > 0 {
					k := rng.Intn(len(inflight))
					rt.Completed(engine.Record{Req: inflight[k]})
					inflight = slices.Delete(inflight, k, k+1)
				}
			case 3: // the instance caches a prompt, suffix-discarded when full
				m.InsertH(engine.HashesOf(&sched.Request{Tokens: prompt}, bt), float64(op))
			case 4: // evictions
				if rng.Intn(4) == 0 {
					m.EvictAll()
				} else {
					_, release := m.Reserve(int64(rng.Intn(12)) * bt)
					release()
				}
			}
			for _, r := range probes {
				if got, want := rt.newView(r).HitTokens(0, r), linearHit(st, r); got != want {
					t.Fatalf("seed %d op %d: hit estimate for a %d-token prompt = %d, linear walk = %d (cached %d)",
						seed, op, r.Len(), got, want, m.PeekH(engine.HashesOf(r, bt)))
				}
			}
		}
	}
}
