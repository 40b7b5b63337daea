package core

import (
	"testing"

	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/hw"
	"repro/internal/kvcache"
	"repro/internal/model"
	"repro/internal/sched"
	"repro/internal/sim"
)

func testConfig(s *sim.Sim, recs *[]engine.Record) engine.Config {
	return engine.Config{
		Model:         model.Llama31_8B(),
		GPU:           hw.L4(),
		Sim:           s,
		ProfileMaxLen: 20000,
		OnComplete:    func(r engine.Record) { *recs = append(*recs, r) },
	}
}

// mkReq builds a request with a per-user shared prefix plus a unique tail.
func mkReq(id int64, user, prefix, extra int, arrival float64) *sched.Request {
	toks := make([]uint64, prefix+extra)
	for i := 0; i < prefix; i++ {
		toks[i] = uint64(user)<<40 | uint64(i)
	}
	for i := prefix; i < prefix+extra; i++ {
		toks[i] = uint64(id)<<48 | uint64(i)
	}
	return &sched.Request{ID: id, UserID: user, Tokens: toks, ArrivalTime: arrival}
}

func TestPrefillOnlyBasics(t *testing.T) {
	var s sim.Sim
	var recs []engine.Record
	eng, err := New(testConfig(&s, &recs), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if eng.Name() != "prefillonly" || eng.GPUs() != 1 {
		t.Fatalf("name=%q gpus=%d", eng.Name(), eng.GPUs())
	}
	if eng.lambda != DefaultLambda {
		t.Fatalf("lambda = %v, want default %v", eng.lambda, DefaultLambda)
	}
	r := mkReq(1, 1, 10000, 100, 0)
	s.At(0, func() { eng.Submit(r) })
	s.Run()
	if len(recs) != 1 || recs[0].Infeasible() {
		t.Fatalf("recs = %+v", recs)
	}
}

// The Figure-5 mechanism at engine level: while a long request runs,
// a same-prefix request and a shorter unrelated request wait. Continuous
// calibration must pick the cache-hit request first even though it is
// longer.
func TestCalibrationPrioritizesCacheHit(t *testing.T) {
	var s sim.Sim
	var recs []engine.Record
	eng, err := New(testConfig(&s, &recs), Options{Lambda: -1}) // pure SRJF+calibration
	if err != nil {
		t.Fatal(err)
	}
	rA := mkReq(1, 1, 12000, 100, 0)    // runs first (queue empty)
	rD := mkReq(2, 1, 12000, 150, 0.01) // shares A's prefix: JCT collapses once A completes
	rC := mkReq(3, 2, 6000, 100, 0.01)  // shorter, no cache hit
	for _, r := range []*sched.Request{rA, rD, rC} {
		r := r
		s.At(r.ArrivalTime, func() { eng.Submit(r) })
	}
	s.Run()
	if len(recs) != 3 {
		t.Fatalf("completed %d", len(recs))
	}
	if recs[1].Req.ID != 2 {
		t.Fatalf("second completion = request %d, want 2 (cache hit prioritized)", recs[1].Req.ID)
	}
	if recs[1].CachedTokens < 11000 {
		t.Fatalf("prioritized request hit only %d cached tokens", recs[1].CachedTokens)
	}
}

// PrefillOnly prices JCT with the cache-miss proxy (§6.3).
func TestProxyEstimatorDefault(t *testing.T) {
	var s sim.Sim
	var recs []engine.Record
	eng, err := New(testConfig(&s, &recs), Options{})
	if err != nil {
		t.Fatal(err)
	}
	// The proxy is calibrated from one cold run at the profile length on
	// the engine's own cost model.
	cold, err := eng.Executor().EstimateSeconds(graph.PassSpec{Total: 20000}, eng.Options())
	if err != nil {
		t.Fatal(err)
	}
	if got, want := eng.Estimator().SecondsPerMissToken, cold/20000; got != want || got <= 0 {
		t.Fatalf("proxy costs %g s per miss token, want %g", got, want)
	}
}

// Suffix discarding at the cache level: a request longer than the pool
// keeps its prefix cached, not its tail.
func TestSuffixDiscardingOnInsert(t *testing.T) {
	var s sim.Sim
	var recs []engine.Record
	cfg := testConfig(&s, &recs)
	cfg.ProfileMaxLen = 120000
	eng, err := New(cfg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	c := eng.Cache()
	poolTokens := int(c.CapacityBytes()/(cfg.Model.KVBytesPerToken()*int64(c.BlockTokens()))) * c.BlockTokens()
	n := 100000
	if poolTokens >= n {
		t.Skipf("pool holds %d tokens; test needs < %d", poolTokens, n)
	}
	r := mkReq(1, 1, n, 0, 0)
	s.At(0, func() { eng.Submit(r) })
	s.Run()
	got := c.PeekH(&kvcache.Chain{Own: kvcache.BlockHashes(r.Tokens, c.BlockTokens())})
	if got == 0 {
		t.Fatal("nothing cached after long request")
	}
	if got > poolTokens {
		t.Fatalf("cached %d tokens exceeds pool %d", got, poolTokens)
	}
}
