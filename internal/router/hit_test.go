package router

// The hit estimate policies see: a block counts as hit on an instance when
// it is cached there or when a request already routed there will cache it
// (pending). hitTokens takes the longer of the two prefixes, the pending
// one from the instance's sorted set of in-flight chains; these tests hold
// it to the cached prefix and a per-block reference model of the pending
// set.

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/engine"
	"repro/internal/kvcache"
	"repro/internal/sched"
	"repro/internal/sim"
)

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

	// Completing a releases its pending chain; nothing is cached yet, so
	// the hit is gone.
	rt.Completed(engine.Record{Req: a})
	if n := len(rt.byID[home].pending.chains); n != 0 {
		t.Fatalf("%d chains still pending after a completed", n)
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

// refPending is the reference model of one instance's pending set: a
// refcount on every block hash of every routed, not-yet-completed
// request, dropped when its count reaches 0.
type refPending map[uint64]int

func (p refPending) add(chain []uint64) {
	for _, h := range chain {
		p[h]++
	}
}

func (p refPending) remove(chain []uint64) {
	for _, h := range chain {
		if p[h]--; p[h] <= 0 {
			delete(p, h)
		}
	}
}

// prefix walks chain while each block is pending.
func (p refPending) prefix(chain []uint64) int {
	n := 0
	for n < len(chain) && p[chain[n]] > 0 {
		n++
	}
	return n
}

// cacheOnlyEngine is an engine that only has a prefix cache: Submit does
// nothing, so a test controls the cache and the router's pending set
// separately.
type cacheOnlyEngine struct{ c *kvcache.Manager }

func (e *cacheOnlyEngine) Name() string            { return "cache-only" }
func (e *cacheOnlyEngine) Submit(*sched.Request)   {}
func (e *cacheOnlyEngine) GPUs() int               { return 1 }
func (e *cacheOnlyEngine) Cache() *kvcache.Manager { return e.c }

// fakeEngine is a cacheOnlyEngine that can crash: Submit records the
// request, and Kill orphans every recorded request the test has not
// completed.
type fakeEngine struct {
	cacheOnlyEngine
	live []*sched.Request
}

func (e *fakeEngine) Submit(r *sched.Request) { e.live = append(e.live, r) }
func (e *fakeEngine) Kill() []*sched.Request {
	orphans := e.live
	e.live = nil
	e.c.LoseAll()
	return orphans
}

// scriptedPolicy picks the instance the test chose for the next request.
type scriptedPolicy struct{ next *int }

func (scriptedPolicy) Name() string                        { return "scripted" }
func (p scriptedPolicy) Pick(_ *sched.Request, v View) int { return *p.next % v.Instances() }

const pendingBlockTokens = 4

// pendingPrompt is one prompt of the pending-prefix driver's pool: its
// tokens, its user, and the length of the user's profile, which the
// driver may declare as a sched.Prefix.
type pendingPrompt struct {
	toks          []uint64
	user, profile int
}

// pendingPrompts is the prompt pool of the pending-prefix driver, in
// blocks of pendingBlockTokens: four users with 4–5-block profiles, the
// first two opening with a shared 2-block template; each user sends the bare
// profile, the profile plus a partial block (the same chain), and the
// profile plus one of three 1–3-block posts; one prompt is shorter than a
// block (no chain at all).
func pendingPrompts() []pendingPrompt {
	const bt = pendingBlockTokens
	var prompts []pendingPrompt
	for user := uint64(1); user <= 4; user++ {
		var profile []uint64
		if user <= 2 {
			for i := uint64(0); i < 2*bt; i++ {
				profile = append(profile, 1<<48|i)
			}
		}
		for i := uint64(0); i < (1+user)*bt; i++ {
			profile = append(profile, user<<32|i)
		}
		profile = slices.Clip(profile)
		prompts = append(prompts, pendingPrompt{profile, int(user), len(profile)}, pendingPrompt{append(profile, 7, 7), int(user), len(profile)})
		for post := uint64(1); post <= 3; post++ {
			p := profile
			for i := uint64(0); i < post*bt; i++ {
				p = append(p, user<<32|post<<16|i)
			}
			prompts = append(prompts, pendingPrompt{p, int(user), len(profile)})
		}
	}
	return append(prompts, pendingPrompt{toks: []uint64{9, 9, 9}})
}

// pendingProbes returns the requests whose hit estimates the driver
// checks: every prompt, every prompt less its last block (a proper prefix
// of a pending chain), and every prompt plus one block (extending one).
func pendingProbes(prompts []pendingPrompt) []*sched.Request {
	const bt = pendingBlockTokens
	var probes []*sched.Request
	add := func(toks []uint64) {
		probes = append(probes, &sched.Request{ID: int64(-len(probes) - 1), Tokens: toks})
	}
	for i, pp := range prompts {
		p := pp.toks
		add(p)
		if len(p) >= bt {
			add(p[:len(p)/bt*bt-bt])
		}
		add(append(slices.Clip(p), 1<<40|uint64(i), 1, 2, 3))
	}
	return probes
}

// pendingDriver applies router operations and holds every instance's hit
// estimate for every probe to max(PeekH, the reference pending prefix).
type pendingDriver struct {
	t        testing.TB
	label    string
	rt       *Router
	pick     int                // the scripted policy's next choice
	ref      map[int]refPending // by instance ID
	inflight []*sched.Request
	prompts  []pendingPrompt
	probes   []*sched.Request
	// prefixes holds the declared prefixes, by what they cover (see
	// prefixOf), so requests share them as a workload's do.
	prefixes map[[2]int]*sched.Prefix
	nextID   int64
	clock    float64
}

func newPendingDriver(t testing.TB, label string, instances int) *pendingDriver {
	d := &pendingDriver{t: t, label: label, ref: make(map[int]refPending), prompts: pendingPrompts(), prefixes: make(map[[2]int]*sched.Prefix)}
	d.probes = pendingProbes(d.prompts)
	rt, err := New(Config{Policy: scriptedPolicy{next: &d.pick}}, d.newEngine())
	if err != nil {
		t.Fatal(err)
	}
	d.rt = rt
	d.ref[0] = refPending{}
	for len(rt.instances) < instances {
		d.addInstance()
	}
	return d
}

func (d *pendingDriver) newEngine() *fakeEngine {
	// Room for 3–10 blocks: inserts keep only a prefix of long prompts.
	m, err := kvcache.New(kvcache.Config{
		BlockTokens:   pendingBlockTokens,
		BytesPerToken: 1,
		CapacityBytes: int64(3+len(d.ref)%8) * pendingBlockTokens,
	})
	if err != nil {
		d.t.Fatal(err)
	}
	return &fakeEngine{cacheOnlyEngine: cacheOnlyEngine{c: m}}
}

func (d *pendingDriver) addInstance() {
	id, err := d.rt.AddInstance(d.newEngine())
	if err != nil {
		d.t.Fatal(err)
	}
	d.ref[id] = refPending{}
}

func (d *pendingDriver) instance(k int) *instanceState {
	return d.rt.instances[k%len(d.rt.instances)]
}

// chain returns the content of r's chain, flat.
func (d *pendingDriver) chain(r *sched.Request) []uint64 {
	return flatChain(engine.HashesOf(r, pendingBlockTokens))
}

func flatChain(c *kvcache.Chain) []uint64 {
	return append(slices.Clone(c.Shared), c.Own...)
}

// prefixOf returns the Prefix, if any, that a request for prompt k
// declares under variant v: none; the user's profile; a distinct Prefix
// of the same tokens; the profile less half a block, ending mid-block; or
// the whole prompt, leaving no block of the request's own. Equal tokens
// under distinct Prefixes, and the same prompt with and without one, give
// pending chains of equal content and different layout.
func (d *pendingDriver) prefixOf(k, v int) *sched.Prefix {
	pp := d.prompts[k]
	var n int
	switch v % 5 {
	case 0:
		return nil
	case 1, 2:
		n = pp.profile
	case 3:
		n = max(pp.profile-pendingBlockTokens/2, 0)
	case 4:
		n = len(pp.toks)
	}
	// A whole prompt's Prefix is one per prompt; the others, one per user.
	key := [2]int{-1 - pp.user, v % 5}
	if v%5 == 4 {
		key[0] = k
	}
	p := d.prefixes[key]
	if p == nil {
		p = &sched.Prefix{Tokens: pp.toks[:n]}
		d.prefixes[key] = p
	}
	return p
}

// submit routes r to the routable instance the choice selects.
func (d *pendingDriver) submit(r *sched.Request, choice int) {
	d.pick = choice
	if err := d.rt.Submit(r); err != nil {
		var rej *RejectError
		if !errors.As(err, &rej) || rej.Reason != ReasonNoCapacity {
			d.t.Fatalf("%s: submit: %v", d.label, err)
		}
		return
	}
	d.ref[d.rt.inflight[r.ID].instance].add(d.chain(r))
	d.inflight = append(d.inflight, r)
}

func (d *pendingDriver) complete(k int) {
	if len(d.inflight) == 0 {
		return
	}
	k %= len(d.inflight)
	r := d.inflight[k]
	d.inflight = slices.Delete(d.inflight, k, k+1)
	id := d.rt.inflight[r.ID].instance
	e := d.rt.byID[id].eng.(*fakeEngine)
	e.live = slices.DeleteFunc(e.live, func(x *sched.Request) bool { return x == r })
	d.rt.Completed(engine.Record{Req: r})
	d.ref[id].remove(d.chain(r))
}

// fail crashes an instance, replaces it, and re-admits its orphans.
func (d *pendingDriver) fail(k, choice int) {
	id := d.instance(k).id
	orphans, err := d.rt.Fail(id)
	if err != nil {
		d.t.Fatalf("%s: fail %d: %v", d.label, id, err)
	}
	delete(d.ref, id)
	d.inflight = slices.DeleteFunc(d.inflight, func(r *sched.Request) bool { return slices.Contains(orphans, r) })
	d.addInstance()
	for i, r := range orphans {
		d.submit(r, choice+i)
	}
}

// remove removes an instance, which must succeed exactly when it is
// drained, and replaces it.
func (d *pendingDriver) remove(k int) {
	st := d.instance(k)
	drained := st.draining && st.load.QueuedRequests == 0
	if err := d.rt.Remove(st.id); (err == nil) != drained {
		d.t.Fatalf("%s: remove instance %d (draining %v, %d queued): %v",
			d.label, st.id, st.draining, st.load.QueuedRequests, err)
	}
	if drained {
		delete(d.ref, st.id)
		d.addInstance()
	}
}

// apply runs one operation: op picks the kind, a and b its arguments.
func (d *pendingDriver) apply(op, a, b int) {
	d.clock++
	switch op % 10 {
	case 0, 1, 2: // route a request: its whole chain becomes pending
		d.nextID++
		k := a % len(d.prompts)
		d.submit(&sched.Request{ID: d.nextID, Tokens: d.prompts[k].toks, Prefix: d.prefixOf(k, op/10)}, b)
	case 3, 4: // complete one: its chain stops being pending
		d.complete(a)
	case 5:
		d.fail(a, b)
	case 6:
		id := d.instance(a).id
		if b%2 == 0 {
			_ = d.rt.Drain(id) // id is registered
		} else {
			_ = d.rt.Undrain(id) // never condemned
		}
	case 7:
		d.remove(a)
	case 8: // an instance caches a prompt, suffix-discarded when full
		toks := d.prompts[a%len(d.prompts)].toks
		d.instance(b).eng.Cache().InsertH(&kvcache.Chain{Own: kvcache.BlockHashes(toks, pendingBlockTokens)}, d.clock)
	case 9: // evictions
		c := d.instance(a).eng.Cache()
		if b%4 == 0 {
			c.LoseAll() // without a host tier, this evicts every unpinned block
		} else {
			_, release := c.Reserve(int64(b%12) * pendingBlockTokens)
			release()
		}
	}
}

// check holds every instance's pending set to sorted order by content,
// and its hit estimate for every probe to the reference.
func (d *pendingDriver) check(step int) {
	for _, st := range d.rt.instances {
		for k := 1; k < len(st.pending.chains); k++ {
			if slices.Compare(flatChain(st.pending.chains[k-1]), flatChain(st.pending.chains[k])) > 0 {
				d.t.Fatalf("%s op %d: instance %d's pending chains %d and %d are out of order", d.label, step, st.id, k-1, k)
			}
		}
		c := st.eng.Cache()
		for _, r := range d.probes {
			chain := d.chain(r)
			want := max(c.PeekH(engine.HashesOf(r, pendingBlockTokens)), d.ref[st.id].prefix(chain)*pendingBlockTokens)
			if got := hitTokens(st, r); got != want {
				d.t.Fatalf("%s op %d: instance %d hit estimate for a %d-token probe = %d, want %d (cached %d, %d chains pending)",
					d.label, step, st.id, r.Len(), got, want, c.PeekH(engine.HashesOf(r, pendingBlockTokens)), len(st.pending.chains))
			}
		}
	}
}

// finish completes everything still in flight; the router must then be
// idle.
func (d *pendingDriver) finish() {
	for len(d.inflight) > 0 {
		d.complete(0)
	}
	d.check(-1)
	if err := d.rt.CheckIdle(); err != nil {
		d.t.Fatalf("%s: after every request completed: %v", d.label, err)
	}
}

// runPendingOps drives three instances with ops, three bytes per
// operation, checking after each.
func runPendingOps(t testing.TB, label string, ops []byte) {
	d := newPendingDriver(t, label, 3)
	for i := 0; i+3 <= len(ops); i += 3 {
		d.apply(int(ops[i]), int(ops[i+1]), int(ops[i+2]))
		d.check(i / 3)
	}
	d.finish()
}

func randomPendingOps(seed int64, n int) []byte {
	ops := make([]byte, 3*n)
	rand.New(rand.NewSource(seed)).Read(ops)
	return ops
}

func TestHitTokensMatchesLinearWalk(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		runPendingOps(t, fmt.Sprintf("seed %d", seed), randomPendingOps(seed, 400))
	}
}

// TestRemovingAnAbsentChainPanics: the set removes the very chain it was
// given, so a chain it does not hold panics even while it holds another
// of equal content.
func TestRemovingAnAbsentChainPanics(t *testing.T) {
	var s chainSet
	hashes := kvcache.BlockHashes([]uint64{1, 2, 3, 4, 5, 6, 7, 8}, pendingBlockTokens)
	chain, twin := &kvcache.Chain{Own: hashes}, &kvcache.Chain{Shared: hashes[:1], Own: hashes[1:]}
	s.add(chain)
	s.add(twin)
	s.add(chain)
	s.remove(chain)
	s.remove(chain)
	if len(s.chains) != 1 || s.chains[0] != twin {
		t.Fatalf("after removing both copies of a chain, the set holds %d chains, want only its twin", len(s.chains))
	}
	defer func() {
		if recover() == nil {
			t.Fatal("removing a chain the set no longer holds did not panic")
		}
	}()
	s.remove(chain)
}

func FuzzPendingPrefix(f *testing.F) {
	// Short seeds: the fuzzer minimizes every input that expands
	// coverage, at a cost that grows with the input's square.
	for seed := int64(0); seed < 8; seed++ {
		f.Add(randomPendingOps(seed, 16))
	}
	f.Fuzz(func(t *testing.T, ops []byte) {
		runPendingOps(t, "fuzz", ops)
	})
}
