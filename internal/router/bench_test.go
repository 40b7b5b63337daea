package router

import (
	"testing"

	"repro/internal/engine"
	"repro/internal/kvcache"
	"repro/internal/sched"
)

// benchView is a fixed-state View: the benchmark isolates the policy's own
// decision cost (score arithmetic, candidate scan) from cache walks, whose
// cost belongs to the kvcache benchmarks.
type benchView struct {
	loads []Load
	hits  []int
}

func (v *benchView) Instances() int  { return len(v.loads) }
func (v *benchView) Load(i int) Load { return v.loads[i] }
func (v *benchView) HitTokens(i int, r *sched.Request) int {
	return v.hits[i]
}
func (v *benchView) EstSeconds(i int, r *sched.Request, hit int) float64 {
	return float64(r.Len()-hit) * 1e-6
}

// BenchmarkRouterPick measures the per-request decision cost of each
// routing policy on an 8-instance view. The routing decision sits on every
// submit of every routed experiment, so it must stay allocation-free
// (-benchmem pins 0 allocs/op for all three policies).
func BenchmarkRouterPick(b *testing.B) {
	const instances = 8
	v := &benchView{
		loads: make([]Load, instances),
		hits:  make([]int, instances),
	}
	for i := range v.loads {
		v.loads[i] = Load{
			QueuedRequests: i,
			QueuedTokens:   int64(i) * 4096,
			BacklogSeconds: float64(i) * 0.25,
		}
		// One warm instance: the affinity scan has a real candidate to
		// weigh against the least-loaded alternative.
		if i == 3 {
			v.hits[i] = 3000
		}
	}
	r := &sched.Request{ID: 1, UserID: 42, Tokens: make([]uint64, 3200)}
	for _, pol := range []Policy{UserHash{}, LeastLoaded{}, AffinityLoad{}} {
		b.Run(pol.Name(), func(b *testing.B) {
			b.ReportAllocs()
			sink := 0
			for i := 0; i < b.N; i++ {
				sink += pol.Pick(r, v)
			}
			if sink < 0 {
				b.Fatal("impossible")
			}
		})
	}
}

// submitCycle builds a router over 8 cache-backed instances with 64
// requests in flight and returns one steady-state routing cycle: the
// oldest request completes and a new one is routed. Prompts are shaped
// like the paper's WL1 at Table 1 size: 20 users, each request a
// 14,000-token prompt (an 875-block chain) made of the user's
// 13,760-token profile and a unique 240-token post. Each instance caches
// the profiles of the users whose hash home it is, and chains are hashed
// up front, so a cycle costs the policy's hit probes, admission and the
// pending-set updates.
func submitCycle(tb testing.TB) func() {
	const (
		instances   = 8
		inFlight    = 64
		users       = 20
		blockTokens = 16
		profile     = 860 * blockTokens
		post        = 15 * blockTokens
	)
	engines := make([]engine.Engine, instances)
	caches := make([]*kvcache.Manager, instances)
	for i := range engines {
		m, err := kvcache.New(kvcache.Config{BlockTokens: blockTokens, BytesPerToken: 1, CapacityBytes: 4 * profile})
		if err != nil {
			tb.Fatal(err)
		}
		caches[i] = m
		engines[i] = &cacheOnlyEngine{c: m}
	}
	rt, err := New(Config{}, engines...)
	if err != nil {
		tb.Fatal(err)
	}
	reqs := make([]*sched.Request, 2*inFlight)
	for i := range reqs {
		user := i % users
		toks := make([]uint64, profile+post)
		for k := range toks[:profile] {
			toks[k] = uint64(user)<<32 | uint64(k)
		}
		for k := range toks[profile:] {
			toks[profile+k] = 1<<63 | uint64(i)<<32 | uint64(k)
		}
		reqs[i] = &sched.Request{ID: int64(i), UserID: user, Tokens: toks}
		chain := engine.HashesOf(reqs[i], blockTokens)
		if i < users {
			caches[homeOf(user, instances)].InsertH(chain[:profile/blockTokens], 0)
		}
	}
	for _, r := range reqs[:inFlight] {
		if err := rt.Submit(r); err != nil {
			tb.Fatal(err)
		}
	}
	next := 0
	return func() {
		rt.Completed(engine.Record{Req: reqs[next]})
		if err := rt.Submit(reqs[(next+inFlight)%len(reqs)]); err != nil {
			tb.Fatal(err)
		}
		next = (next + 1) % len(reqs)
	}
}

// BenchmarkRouterSubmit measures one Submit→Completed cycle: the router's
// per-request cost on the routed path, hit probes and pending-set
// maintenance included.
func BenchmarkRouterSubmit(b *testing.B) {
	cycle := submitCycle(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cycle()
	}
}

func TestRouterSubmitAllocs(t *testing.T) {
	cycle := submitCycle(t)
	for i := 0; i < 256; i++ { // grow the reused buffers to steady state
		cycle()
	}
	if n := testing.AllocsPerRun(1000, cycle); n != 0 {
		t.Fatalf("a steady Submit→Completed cycle allocates %v times, want 0", n)
	}
}
