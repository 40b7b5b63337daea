// Package router is the cluster-scale serving frontend: it routes requests
// across engine instances by live load and prefix-cache affinity, and sheds
// load when an instance's backlog exceeds an admission bound.
//
// It is the alternative to internal/fleet's static §7.1 user-id
// round-robin. The router tracks, per instance, the requests and tokens it
// has routed but not yet seen complete, plus an estimated backlog in
// seconds computed with the instance's JCT estimator (the same estimator
// PrefillOnly's calibrated scheduler uses). Routing policies are pluggable
// behind the Policy interface; see policy.go for the three built-ins the
// experiments compare (UserHash, LeastLoaded, AffinityLoad).
//
// Membership is dynamic: instances can be added while the router runs
// (AddInstance), marked draining (Drain) so policies stop offering them
// while their in-flight work finishes, and removed once drained (Remove).
// Every instance has a stable ID that is never reused, so load accounting
// and autoscaler bookkeeping survive arbitrary add/drain/remove cycles.
// internal/autoscale drives this lifecycle from backlog and admission
// signals.
//
// The router is not goroutine-safe: simulation drivers call it from
// single-threaded event handlers, and the HTTP backend serializes access
// under its own lock.
package router

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/jct"
	"repro/internal/kvcache"
	"repro/internal/metrics"
	"repro/internal/sched"
	"repro/internal/trace"
)

// Reject reasons: which admission budget a shed request tripped. They are
// stable label values for metrics, the 429 body and traces.
const (
	// ReasonBacklog is the aggregate bound: the projected wait exceeded
	// MaxBacklogSeconds.
	ReasonBacklog = "backlog"
	// ReasonClassBudget is a per-class bound: the projected wait exceeded
	// the request class's ClassBacklogSeconds budget.
	ReasonClassBudget = "class-budget"
	// ReasonNoCapacity is the empty-fleet shed: no routable instance
	// existed at submission (every instance draining, crashed or
	// preempted). Before fault injection this state was unreachable in a
	// well-formed run and surfaced as an untyped error.
	ReasonNoCapacity = "no-capacity"
	// ReasonOrphanRetries is the fault-recovery shed: a request orphaned
	// by instance failures exhausted its re-admission retry budget
	// (internal/chaos).
	ReasonOrphanRetries = "orphan-retries"
)

// Load is a snapshot of one instance's work as seen by the router.
type Load struct {
	// QueuedRequests is the requests routed to the instance that have not
	// completed yet (waiting or executing).
	QueuedRequests int
	// QueuedTokens is the input tokens of those requests.
	QueuedTokens int64
	// BacklogSeconds is the estimated execution time of those requests,
	// from the instance's JCT estimator at routing time.
	BacklogSeconds float64
	// ClassBacklogSeconds splits BacklogSeconds by SLO class (indexed by
	// sched.Class). The autoscaler scales on the interactive share so
	// batch backlog alone never provisions capacity.
	ClassBacklogSeconds [sched.NumClasses]float64
	// RoutedRequests and RoutedTokens are cumulative totals since
	// construction (never decremented); they measure routing balance.
	RoutedRequests int64
	RoutedTokens   int64
}

// ClassBacklog returns the backlog seconds of one SLO class (0 for
// classes outside the indexed range).
func (l Load) ClassBacklog(c sched.Class) float64 {
	if int(c) >= len(l.ClassBacklogSeconds) {
		return 0
	}
	return l.ClassBacklogSeconds[c]
}

// InstanceInfo is one instance's identity and live state, for stats
// endpoints and the autoscaler.
type InstanceInfo struct {
	// ID is the instance's stable router ID (never reused).
	ID int
	// Draining reports whether the instance is excluded from routing and
	// finishing its in-flight work.
	Draining bool
	// GPUs is the device count the instance occupies.
	GPUs int
	// Load is the instance's live load.
	Load Load
}

// RejectError is the typed error Submit returns when admission control
// sheds a request: the chosen instance's projected completion wait
// (backlog plus the request's own estimated execution) exceeds the bound.
type RejectError struct {
	// Policy is the routing policy that chose the instance.
	Policy string
	// Instance is the chosen instance's stable ID.
	Instance int
	// Class is the shed request's SLO class.
	Class sched.Class
	// BacklogSeconds is the instance's estimated backlog at rejection.
	BacklogSeconds float64
	// EstimateSeconds is the request's own estimated execution time.
	EstimateSeconds float64
	// BoundSeconds is the admission bound applied (the request class's
	// budget when one is configured, MaxBacklogSeconds otherwise).
	BoundSeconds float64
	// Reason says why the request was shed: ReasonClassBudget when the
	// request class has its own ClassBacklogSeconds entry, ReasonBacklog
	// when the aggregate MaxBacklogSeconds applied, ReasonNoCapacity when
	// no routable instance existed, and ReasonOrphanRetries when a
	// fault-orphaned request exhausted its re-admission budget.
	Reason string
}

// Error implements error.
func (e *RejectError) Error() string {
	switch e.Reason {
	case ReasonNoCapacity:
		return fmt.Sprintf("router: %s rejected %s request: no routable instances", e.Policy, e.Class)
	case ReasonOrphanRetries:
		return fmt.Sprintf("router: %s shed orphaned %s request: re-admission retry budget exhausted", e.Policy, e.Class)
	}
	return fmt.Sprintf("router: %s rejected %s request for instance %d: backlog %.3gs + est %.3gs exceeds %s bound %.3gs",
		e.Policy, e.Class, e.Instance, e.BacklogSeconds, e.EstimateSeconds, e.Reason, e.BoundSeconds)
}

// Config configures a Router.
type Config struct {
	// Policy picks the instance for each request (default AffinityLoad).
	Policy Policy
	// MaxBacklogSeconds enables admission control when positive: a request
	// whose projected completion wait on the chosen instance (backlog +
	// its own estimated execution) exceeds the bound is rejected with a
	// *RejectError instead of queued.
	MaxBacklogSeconds float64
	// ClassBacklogSeconds overrides MaxBacklogSeconds per SLO class. A
	// class with a smaller budget is shed earlier: giving batch a budget
	// below interactive's reserves the headroom between the two for
	// interactive traffic, so batch load is dropped before interactive
	// load ever is. A class entry of 0 disables admission control for
	// that class; classes without an entry use MaxBacklogSeconds.
	ClassBacklogSeconds map[sched.Class]float64
	// Tracer, when non-nil, receives submit/route/reject instants for
	// every routing decision. The router has no clock, so events are
	// stamped with the request's arrival time (submission happens at
	// arrival on both the simulated and the served path).
	Tracer *trace.Recorder
}

// fallbackSecondsPerToken prices backlog for engines that expose neither an
// estimator nor a cost model. Instances behind one router are homogeneous,
// so only the relative magnitude matters for routing decisions.
const fallbackSecondsPerToken = 1e-4

// estimatorProbeLen is the cold-run length used to calibrate a proxy
// estimator from an engine's cost model.
const estimatorProbeLen = 4096

type instanceState struct {
	id       int
	eng      engine.Engine
	est      jct.Estimator
	load     Load
	draining bool
	// condemned marks an instance that received a preemption notice: it
	// drains like any scale-down victim but can never be revived, because
	// the machine under it is going away regardless of load.
	condemned bool
	// pending holds the hash chains of routed, not-yet-completed
	// requests. Merged into hit estimation so that concurrent requests
	// sharing a prefix are attracted to the instance already computing
	// it, instead of stampeding the same prefix onto several instances
	// before the first one caches it.
	pending chainSet
}

// pending is the bookkeeping of one routed, not-yet-completed request.
type pending struct {
	instance int // stable instance ID
	tokens   int64
	seconds  float64
	class    sched.Class
	hashes   []uint64
}

// Router routes requests across a dynamic set of engine instances.
type Router struct {
	cfg       Config
	instances []*instanceState // creation order, compacted on Remove
	byID      map[int]*instanceState
	nextID    int
	// routableCache is the non-draining subset in slot order, rebuilt
	// lazily after membership or drain changes.
	routableCache []*instanceState
	routableDirty bool
	inflight      map[int64]pending
	admission     *metrics.Admission
	// view is the policy view Submit reuses for every request.
	view view
	// released sums the prefix-cache statistics of removed and failed
	// instances, so CacheStats stays cumulative while the router holds
	// only live engines.
	released kvcache.Stats
}

// estimatorEngine is satisfied by engines that expose a calibrated JCT
// estimator (core.Engine does).
type estimatorEngine interface {
	Estimator() jct.Estimator
}

// executorEngine is satisfied by engines that expose their cost model
// (engine.Serial does); the router calibrates a cache-miss proxy from it.
type executorEngine interface {
	Executor() *graph.Executor
	Options() graph.Options
}

// New builds a router over the given instances.
func New(cfg Config, instances ...engine.Engine) (*Router, error) {
	if len(instances) == 0 {
		return nil, fmt.Errorf("router: need at least one instance")
	}
	if cfg.Policy == nil {
		cfg.Policy = AffinityLoad{}
	}
	if cfg.MaxBacklogSeconds < 0 {
		return nil, fmt.Errorf("router: MaxBacklogSeconds must be non-negative, got %g", cfg.MaxBacklogSeconds)
	}
	// Validate per-class budgets in sorted class order so the reported
	// error is deterministic when several classes are misconfigured.
	classes := make([]sched.Class, 0, len(cfg.ClassBacklogSeconds))
	//prefill:allow(simdeterminism): key collection feeds the sort below, order-insensitive
	for class := range cfg.ClassBacklogSeconds {
		classes = append(classes, class)
	}
	sort.Slice(classes, func(i, j int) bool { return classes[i] < classes[j] })
	for _, class := range classes {
		if bound := cfg.ClassBacklogSeconds[class]; bound < 0 {
			return nil, fmt.Errorf("router: %s backlog budget must be non-negative, got %g", class, bound)
		}
	}
	rt := &Router{
		cfg:           cfg,
		byID:          make(map[int]*instanceState),
		routableDirty: true,
		inflight:      make(map[int64]pending),
		admission:     &metrics.Admission{},
	}
	for _, e := range instances {
		if _, err := rt.AddInstance(e); err != nil {
			return nil, err
		}
	}
	return rt, nil
}

// AddInstance registers a new routable instance and returns its stable ID.
// IDs are never reused, so an autoscaler can add and remove instances in
// any order without aliasing load accounting.
func (rt *Router) AddInstance(e engine.Engine) (int, error) {
	if e == nil {
		return 0, fmt.Errorf("router: instance is nil")
	}
	st := &instanceState{
		id:  rt.nextID,
		eng: e,
		est: resolveEstimator(e),
	}
	rt.nextID++
	rt.instances = append(rt.instances, st)
	rt.byID[st.id] = st
	rt.routableDirty = true
	return st.id, nil
}

// Drain marks an instance draining: policies stop seeing it, so no new
// requests route to it, while its in-flight work runs to completion.
// Draining an already-draining instance is a no-op.
func (rt *Router) Drain(id int) error {
	st, ok := rt.byID[id]
	if !ok {
		return fmt.Errorf("router: unknown instance %d", id)
	}
	if !st.draining {
		st.draining = true
		rt.routableDirty = true
	}
	return nil
}

// Undrain returns a draining instance to the routable set — the
// autoscaler's rescue path when load returns while a warm instance is
// still draining: reviving it restores capacity instantly, where a fresh
// instance would pay a full cold start. Undraining a non-draining
// instance is a no-op.
func (rt *Router) Undrain(id int) error {
	st, ok := rt.byID[id]
	if !ok {
		return fmt.Errorf("router: unknown instance %d", id)
	}
	if st.condemned {
		return fmt.Errorf("router: instance %d is condemned (preemption notice) and cannot be revived", id)
	}
	if st.draining {
		st.draining = false
		rt.routableDirty = true
	}
	return nil
}

// Drained reports whether a draining instance has finished its in-flight
// work and may be removed.
func (rt *Router) Drained(id int) (bool, error) {
	st, ok := rt.byID[id]
	if !ok {
		return false, fmt.Errorf("router: unknown instance %d", id)
	}
	return st.draining && st.load.QueuedRequests == 0, nil
}

// Remove releases a drained instance. It must be draining with no
// in-flight work; removing a live instance would strand the load
// accounting of its queued requests.
func (rt *Router) Remove(id int) error {
	st, ok := rt.byID[id]
	if !ok {
		return fmt.Errorf("router: unknown instance %d", id)
	}
	if !st.draining {
		return fmt.Errorf("router: instance %d is not draining", id)
	}
	if st.load.QueuedRequests > 0 {
		return fmt.Errorf("router: instance %d still has %d in-flight requests", id, st.load.QueuedRequests)
	}
	rt.release(st)
	return nil
}

// release drops an instance from the membership, folding its cache
// statistics into the released total.
func (rt *Router) release(st *instanceState) {
	if c := st.eng.Cache(); c != nil {
		rt.released.Add(c.Stats())
	}
	for i, s := range rt.instances {
		if s == st {
			rt.instances = append(rt.instances[:i], rt.instances[i+1:]...)
			break
		}
	}
	delete(rt.byID, st.id)
	rt.routableDirty = true
}

// Condemn marks an instance as irrevocably leaving (spot preemption
// notice): it keeps serving its queue while draining, but Undrain on it
// fails, so the autoscaler's revive path falls through to a cold start.
// Condemning does not itself drain; pair it with Drain.
func (rt *Router) Condemn(id int) error {
	st, ok := rt.byID[id]
	if !ok {
		return fmt.Errorf("router: unknown instance %d", id)
	}
	st.condemned = true
	return nil
}

// Has reports whether the instance ID is still registered (routable,
// draining or condemned). Fault injectors use it to tell "already
// released" from "needs a forced kill" at a preemption deadline.
func (rt *Router) Has(id int) bool {
	_, ok := rt.byID[id]
	return ok
}

// EngineOf returns the engine behind a registered instance ID. Fault
// injectors use it to reach per-instance knobs (straggler speed factor)
// that are not part of the routing surface.
func (rt *Router) EngineOf(id int) (engine.Engine, error) {
	st, ok := rt.byID[id]
	if !ok {
		return nil, fmt.Errorf("router: unknown instance %d", id)
	}
	return st.eng, nil
}

// killableEngine is satisfied by engines that can crash mid-flight and
// report their orphaned requests (engine.Serial does).
type killableEngine interface {
	Kill() []*sched.Request
}

// Fail force-removes an instance that crashed or hit a preemption
// deadline: the engine is killed (aborting its in-service request,
// draining its queue and losing both cache tiers), every orphaned
// request's load accounting and in-flight entry are released so the
// orphans can be re-admitted through Submit, and the instance is removed
// with its ID retired. It returns the orphans in deterministic order
// (in-service first, then scheduler order).
func (rt *Router) Fail(id int) ([]*sched.Request, error) {
	st, ok := rt.byID[id]
	if !ok {
		return nil, fmt.Errorf("router: unknown instance %d", id)
	}
	ke, ok := st.eng.(killableEngine)
	if !ok {
		return nil, fmt.Errorf("router: instance %d engine %s cannot be killed", id, st.eng.Name())
	}
	orphans := ke.Kill()
	for _, r := range orphans {
		delete(rt.inflight, r.ID)
	}
	rt.release(st)
	return orphans, nil
}

// routable returns the non-draining instances in slot order.
func (rt *Router) routable() []*instanceState {
	if rt.routableDirty {
		rt.routableCache = rt.routableCache[:0]
		for _, st := range rt.instances {
			if !st.draining {
				rt.routableCache = append(rt.routableCache, st)
			}
		}
		rt.routableDirty = false
	}
	return rt.routableCache
}

// resolveEstimator picks the JCT estimator used to price an instance's
// backlog: the engine's own calibrated estimator if it exposes one, a
// cache-miss proxy calibrated from the engine's cost model if it exposes
// that, and otherwise a fixed per-token constant.
func resolveEstimator(e engine.Engine) jct.Estimator {
	if ee, ok := e.(estimatorEngine); ok {
		if est := ee.Estimator(); est != nil {
			return est
		}
	}
	if xe, ok := e.(executorEngine); ok {
		measure := func(nInput, nCached int) (float64, error) {
			return xe.Executor().EstimateSeconds(graph.PassSpec{Total: nInput, Cached: nCached}, xe.Options())
		}
		if p, err := jct.CalibrateProxy(measure, estimatorProbeLen); err == nil {
			return p
		}
	}
	return &jct.Proxy{SecondsPerMissToken: fallbackSecondsPerToken}
}

// Instances returns every routed engine (including draining ones) in slot
// order.
func (rt *Router) Instances() []engine.Engine {
	out := make([]engine.Engine, len(rt.instances))
	for i, st := range rt.instances {
		out[i] = st.eng
	}
	return out
}

// Size returns the current instance count, draining included.
func (rt *Router) Size() int { return len(rt.instances) }

// Routable returns the number of instances policies can pick.
func (rt *Router) Routable() int { return len(rt.routable()) }

// GPUs returns the total GPUs occupied by the routed instances.
func (rt *Router) GPUs() int {
	n := 0
	for _, st := range rt.instances {
		n += st.eng.GPUs()
	}
	return n
}

// CacheStats returns the prefix-cache statistics of every instance the
// router has ever held: the live instances' current counters plus the
// totals Remove and Fail folded in when they released an instance.
func (rt *Router) CacheStats() kvcache.Stats {
	total := rt.released
	for _, st := range rt.instances {
		if c := st.eng.Cache(); c != nil {
			total.Add(c.Stats())
		}
	}
	return total
}

// Policy returns the active routing policy.
func (rt *Router) Policy() Policy { return rt.cfg.Policy }

// Admission returns the router's accept/reject tally.
func (rt *Router) Admission() *metrics.Admission { return rt.admission }

// Loads returns a snapshot of every instance's load (draining included) in
// slot order.
func (rt *Router) Loads() []Load {
	out := make([]Load, len(rt.instances))
	for i, st := range rt.instances {
		out[i] = st.load
	}
	return out
}

// InstanceInfos returns every instance's identity and live state
// (draining included) in slot order.
func (rt *Router) InstanceInfos() []InstanceInfo {
	out := make([]InstanceInfo, len(rt.instances))
	for i, st := range rt.instances {
		out[i] = InstanceInfo{ID: st.id, Draining: st.draining, GPUs: st.eng.GPUs(), Load: st.load}
	}
	return out
}

// InFlight returns the number of routed requests not yet completed.
func (rt *Router) InFlight() int { return len(rt.inflight) }

// idleBacklogSeconds is how far from zero a drained instance's backlog
// may sit: the rounding residue of adding and subtracting the same
// estimates in a different order.
const idleBacklogSeconds = 1e-9

// CheckIdle verifies that the router holds no routed work, as it must
// once every routed request has completed or been orphaned: nothing in
// flight, and on every instance no queued requests or tokens, a backlog
// (total and per class) within rounding of zero, and no pending chains.
// Anything else is leaked accounting.
func (rt *Router) CheckIdle() error {
	if n := len(rt.inflight); n > 0 {
		return fmt.Errorf("router: %d requests still in flight", n)
	}
	for _, st := range rt.instances {
		l := st.load
		if l.QueuedRequests != 0 || l.QueuedTokens != 0 {
			return fmt.Errorf("router: instance %d still has %d queued requests and %d queued tokens",
				st.id, l.QueuedRequests, l.QueuedTokens)
		}
		if math.Abs(l.BacklogSeconds) > idleBacklogSeconds {
			return fmt.Errorf("router: instance %d still has a %gs backlog", st.id, l.BacklogSeconds)
		}
		for c, b := range l.ClassBacklogSeconds {
			if math.Abs(b) > idleBacklogSeconds {
				return fmt.Errorf("router: instance %d still has a %gs %s backlog", st.id, b, sched.Class(c))
			}
		}
		if n := len(st.pending.chains); n > 0 {
			return fmt.Errorf("router: instance %d still has %d pending chains", st.id, n)
		}
	}
	return nil
}

// estSeconds prices a request on an instance: the instance estimator
// evaluated at the request's current prefix-cache hit length there
// (peeked, so routing sweeps do not disturb LRU order).
func estSeconds(st *instanceState, r *sched.Request, hit int) float64 {
	if hit > r.Len() {
		hit = r.Len()
	}
	return st.est.Estimate(r.Len(), hit)
}

// hitTokens estimates the request's prefix-cache hit length on an instance
// without touching LRU order or hit-rate statistics. A block counts as hit
// when it is cached or when a request already routed to the instance is
// about to cache it (pending), so the estimate reflects the near future
// rather than stampeding shared prefixes across instances. Both sets are
// prefix-closed along the request's chain — the cache by its
// no-dangling-prefix invariant, the pending set because every routed
// request adds its whole chain — so their union is the longer of the two
// prefixes, each found by binary search.
func hitTokens(st *instanceState, r *sched.Request) int {
	c := st.eng.Cache()
	if c == nil {
		return 0
	}
	chain := engine.HashesOf(r, c.BlockTokens())
	return max(c.PeekH(chain), st.pending.longestPrefix(chain)*c.BlockTokens())
}

// view adapts the router to the Policy View interface over a snapshot of
// the routable instances, memoizing the per-instance hit estimate for the
// request being routed: AffinityLoad scans every instance and then
// re-scores two finalists, and Submit's admission check needs the chosen
// instance's hit again — each would otherwise repeat two binary searches
// of the prompt's block chain per instance on the routing hot path.
type view struct {
	insts []*instanceState
	r     *sched.Request
	hits  []int // per-instance hit, -1 = not yet computed
}

// newView resets the router's view for routing r. The view and its memo
// are reused, so a view is valid only until the next call.
func (rt *Router) newView(r *sched.Request) *view {
	v := &rt.view
	v.insts = rt.routable()
	v.r = r
	v.hits = v.hits[:0]
	for range v.insts {
		v.hits = append(v.hits, -1)
	}
	return v
}

func (v *view) Instances() int  { return len(v.insts) }
func (v *view) Load(i int) Load { return v.insts[i].load }
func (v *view) HitTokens(i int, r *sched.Request) int {
	if r != v.r {
		return hitTokens(v.insts[i], r)
	}
	if v.hits[i] < 0 {
		v.hits[i] = hitTokens(v.insts[i], r)
	}
	return v.hits[i]
}
func (v *view) EstSeconds(i int, r *sched.Request, hit int) float64 {
	return estSeconds(v.insts[i], r, hit)
}

// Submit routes a request: the policy picks an instance among the
// routable (non-draining) ones, admission control accepts or sheds, and
// the request is handed to the instance's engine. A shed request is
// returned as a *RejectError and never enqueued.
func (rt *Router) Submit(r *sched.Request) error {
	// IDs are caller-assigned and key the load accounting: a duplicate
	// would overwrite the pending entry and leak load forever.
	if _, dup := rt.inflight[r.ID]; dup {
		return fmt.Errorf("router: request ID %d is already in flight", r.ID)
	}
	v := rt.newView(r)
	if len(v.insts) == 0 {
		// No routable capacity (every instance draining, crashed or
		// preempted): a typed shed, so fault-injected runs degrade to
		// rejection instead of erroring out.
		rt.admission.RejectClassReason(rt.cfg.Policy.Name(), r.Class.String(), ReasonNoCapacity)
		rt.cfg.Tracer.Reject(r.ArrivalTime, ReasonNoCapacity, r.ID, r.Class, -1, 0, 0)
		return &RejectError{
			Policy:   rt.cfg.Policy.Name(),
			Instance: -1,
			Class:    r.Class,
			Reason:   ReasonNoCapacity,
		}
	}
	idx := rt.cfg.Policy.Pick(r, v)
	if idx < 0 || idx >= len(v.insts) {
		return fmt.Errorf("router: policy %s picked out-of-range instance %d of %d",
			rt.cfg.Policy.Name(), idx, len(v.insts))
	}
	st := v.insts[idx]
	rt.cfg.Tracer.Submit(r.ArrivalTime, rt.cfg.Policy.Name(), r.ID, r.Class)
	hit := v.HitTokens(idx, r)
	est := estSeconds(st, r, hit)
	bound := rt.cfg.MaxBacklogSeconds
	reason := ReasonBacklog
	if classBound, ok := rt.cfg.ClassBacklogSeconds[r.Class]; ok {
		bound = classBound
		reason = ReasonClassBudget
	}
	if bound > 0 && st.load.BacklogSeconds+est > bound {
		rt.admission.RejectClassReason(rt.cfg.Policy.Name(), r.Class.String(), reason)
		rt.cfg.Tracer.Reject(r.ArrivalTime, reason, r.ID, r.Class, st.id, st.load.BacklogSeconds, bound)
		return &RejectError{
			Policy:          rt.cfg.Policy.Name(),
			Instance:        st.id,
			Class:           r.Class,
			BacklogSeconds:  st.load.BacklogSeconds,
			EstimateSeconds: est,
			BoundSeconds:    bound,
			Reason:          reason,
		}
	}
	rt.admission.AcceptClass(rt.cfg.Policy.Name(), r.Class.String())
	rt.cfg.Tracer.Route(r.ArrivalTime, rt.cfg.Policy.Name(), r.ID, r.Class, st.id, hit, est)
	var hashes []uint64
	if c := st.eng.Cache(); c != nil {
		hashes = engine.HashesOf(r, c.BlockTokens())
		st.pending.add(hashes)
	}
	rt.inflight[r.ID] = pending{instance: st.id, tokens: int64(r.Len()), seconds: est, class: r.Class, hashes: hashes}
	st.load.QueuedRequests++
	st.load.QueuedTokens += int64(r.Len())
	st.load.BacklogSeconds += est
	if int(r.Class) < len(st.load.ClassBacklogSeconds) {
		st.load.ClassBacklogSeconds[r.Class] += est
	}
	st.load.RoutedRequests++
	st.load.RoutedTokens += int64(r.Len())
	st.eng.Submit(r)
	return nil
}

// Completed releases a routed request's load accounting. Chain it into the
// engines' OnComplete sink; records for requests the router did not route
// are ignored.
func (rt *Router) Completed(rec engine.Record) {
	p, ok := rt.inflight[rec.Req.ID]
	if !ok {
		return
	}
	delete(rt.inflight, rec.Req.ID)
	st, ok := rt.byID[p.instance]
	if !ok {
		// Removal requires a fully drained instance, so the instance of an
		// in-flight request cannot have been removed.
		return
	}
	st.load.QueuedRequests--
	st.load.QueuedTokens -= p.tokens
	st.load.BacklogSeconds -= p.seconds
	if st.load.BacklogSeconds < 1e-12 {
		st.load.BacklogSeconds = 0
	}
	if int(p.class) < len(st.load.ClassBacklogSeconds) {
		st.load.ClassBacklogSeconds[p.class] -= p.seconds
		if st.load.ClassBacklogSeconds[p.class] < 1e-12 {
			st.load.ClassBacklogSeconds[p.class] = 0
		}
	}
	st.pending.remove(p.hashes)
}
