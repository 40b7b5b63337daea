package engine

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/kvcache"
	"repro/internal/sched"
	"repro/internal/trace"
)

// lifecycle is the dispatch lifecycle shared by every engine: begin pins
// the request's cached prefix, decides host-tier restoring, reserves
// resident KV and accounts spill; estimate prices one executor pass; and
// finish releases resources, caches the computed prefix and emits the
// Record. Serial, TensorParallel and PipelineParallel all drive this one
// type — engine-specific costs (collectives, stage handoffs, spill
// bandwidth splits) stay in the engines — so scheduling and accounting
// changes land once instead of three times.
type lifecycle struct {
	name  string
	cfg   Config
	exec  *graph.Executor
	opts  graph.Options
	cache *kvcache.Manager
	prof  profile
	// ti is the engine's flight-recorder handle (nil when tracing is
	// disabled): begin emits the queue-wait span, finish the execution
	// span, so every request's JCT is fully attributed queue+exec.
	ti *trace.Instance

	// residentKV engines must hold a running request's full fresh KV in
	// the pool for the duration of execution (PagedAttention, chunked
	// prefill, TP, PP); PrefillOnly discards it during inference.
	residentKV bool
	// hostRestore engines consider loading host-offloaded prefix blocks
	// back over the host link when that beats recomputing them (§9).
	hostRestore bool
	// spillGPUs is how many devices each overflow their own activation
	// share past the profiled length (1 serial, 2 for TP/PP).
	spillGPUs int64
}

// inflight is one request travelling the lifecycle between begin and
// finish.
type inflight struct {
	req   *sched.Request
	start float64
	chain *kvcache.Chain // HashesOf(req), which req holds
	// cached counts prefix tokens served without recompute: GPU-tier
	// hits plus restored, the host-restored share.
	cached, restored int
	restoreSeconds   float64
	spilled          int64
	// unpin and unreserve release the cached-prefix pin and the resident-
	// KV reservation; either may be nil. Kept as separate fields so begin
	// does not build a combining closure per request.
	unpin, unreserve func()

	// est caches the priced executor pass when the restore decision
	// already ran it, so estimate does not repeat the cost model.
	est      float64
	estValid bool

	// mark is a scratch timestamp for intra-request trace boundaries:
	// PipelineParallel stamps each stage's start here so stage spans can
	// be emitted without a per-request closure.
	mark float64
}

// fresh returns the tokens that must be computed.
func (f *inflight) fresh() int { return f.req.Len() - f.cached }

// begin admits a request at time now: pin the cached prefix, optionally
// restore from the host tier, reserve resident KV, and account activation
// and KV spill.
func (l *lifecycle) begin(r *sched.Request, now float64) *inflight {
	chain := HashesOf(r, l.cache.BlockTokens())
	cached, unpin := l.cache.PinH(chain, now)
	if cached > r.Len() {
		cached = r.Len()
	}
	inf := &inflight{req: r, start: now, chain: chain, cached: cached, unpin: unpin}
	l.ti.Queue(r.ID, r.Class, r.ArrivalTime, now)
	if l.hostRestore {
		l.maybeRestore(inf)
	}

	// Requests longer than the profiled length spill their excess
	// activation working set over the host link; resident-KV engines
	// additionally spill whatever fresh KV the pool cannot hold.
	spilled := l.spillGPUs * l.prof.actSpill(r.Len())
	if l.residentKV {
		need := int64(inf.fresh()) * l.cfg.Model.KVBytesPerToken()
		var short int64
		short, inf.unreserve = l.cache.Reserve(need)
		spilled += short
	}
	inf.spilled = spilled
	return inf
}

// maybeRestore applies the §9 extension: if the blocks following the GPU
// hit are in the host offload tier, restore them over the host link when
// that beats recomputing them.
func (l *lifecycle) maybeRestore(inf *inflight) {
	r := inf.req
	hostHit := l.cache.HostHitH(inf.chain, inf.cached/l.cache.BlockTokens())
	if hostHit <= 0 {
		return
	}
	withRestore := inf.cached + hostHit
	if withRestore > r.Len() {
		withRestore = r.Len()
	}
	tRecompute, err1 := l.exec.EstimateSeconds(graph.PassSpec{Total: r.Len(), Cached: inf.cached}, l.opts)
	tRestoredPass, err2 := l.exec.EstimateSeconds(graph.PassSpec{Total: r.Len(), Cached: withRestore}, l.opts)
	if err1 != nil || err2 != nil {
		return
	}
	loadTime := float64(int64(withRestore-inf.cached)*l.cfg.Model.KVBytesPerToken()) / l.cfg.GPU.HostBWBytes
	if tRestoredPass+loadTime < tRecompute {
		inf.restored = withRestore - inf.cached
		inf.cached = withRestore
		inf.restoreSeconds = loadTime
		inf.est, inf.estValid = tRestoredPass, true
	} else {
		inf.est, inf.estValid = tRecompute, true
	}
}

// estimate prices one pass of the engine's executor over the request.
// Cost-model failure is a programming error (specs are validated at
// submit); fail loudly.
func (l *lifecycle) estimate(inf *inflight) float64 {
	if inf.estValid {
		return inf.est
	}
	dur, err := l.exec.EstimateSeconds(graph.PassSpec{Total: inf.req.Len(), Cached: inf.cached}, l.opts)
	if err != nil {
		panic(fmt.Sprintf("engine %s: pricing request %d: %v", l.name, inf.req.ID, err))
	}
	inf.est, inf.estValid = dur, true
	return dur
}

// abort releases a crashed request's resources without completing it: the
// pin and reservation are returned, but nothing is cached and no Record
// is emitted — the work is simply lost (the router re-admits the orphan).
func (l *lifecycle) abort(inf *inflight) {
	if inf.unpin != nil {
		inf.unpin()
	}
	if inf.unreserve != nil {
		inf.unreserve()
	}
}

// finish completes a request at the given timestamp: release the pin and
// reservation, cache what was computed (full insert for conventional
// engines whose KV is already in the pool, prefix-first insert with
// suffix discarding for PrefillOnly), and emit the Record.
func (l *lifecycle) finish(inf *inflight, finish float64) {
	if inf.unpin != nil {
		inf.unpin()
	}
	if inf.unreserve != nil {
		inf.unreserve()
	}
	l.cache.InsertH(inf.chain, finish)
	l.ti.Exec(inf.req.ID, inf.req.Class, inf.start, finish, inf.cached, inf.req.EstimatedSeconds)
	l.cfg.emit(Record{
		Req:            inf.req,
		Arrival:        inf.req.ArrivalTime,
		Start:          inf.start,
		Finish:         finish,
		CachedTokens:   inf.cached,
		SpilledBytes:   inf.spilled,
		RestoredTokens: inf.restored,
		Instance:       l.name,
	})
}
