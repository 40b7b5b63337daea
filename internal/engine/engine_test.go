package engine

import (
	"testing"

	"repro/internal/hw"
	"repro/internal/model"
	"repro/internal/sched"
	"repro/internal/sim"
)

// testRequest builds a request whose tokens are a deterministic stream.
func testRequest(id int64, user, n int, arrival float64) *sched.Request {
	toks := make([]uint64, n)
	for i := range toks {
		toks[i] = uint64(user)<<40 | uint64(i)
	}
	return &sched.Request{ID: id, UserID: user, Tokens: toks, ArrivalTime: arrival}
}

// sharedPrefixRequest builds a request sharing `share` leading tokens with
// user's stream, then diverging.
func sharedPrefixRequest(id int64, user, share, extra int, arrival float64) *sched.Request {
	toks := make([]uint64, share+extra)
	for i := 0; i < share; i++ {
		toks[i] = uint64(user)<<40 | uint64(i)
	}
	for i := share; i < share+extra; i++ {
		toks[i] = uint64(id)<<48 | uint64(i)
	}
	return &sched.Request{ID: id, UserID: user, Tokens: toks, ArrivalTime: arrival}
}

func testConfig(s *sim.Sim, recs *[]Record) Config {
	return Config{
		Model:         model.Llama31_8B(),
		GPU:           hw.L4(),
		Sim:           s,
		ProfileMaxLen: 20000,
		OnComplete: func(r Record) {
			*recs = append(*recs, r)
		},
	}
}

func TestPagedAttentionCompletesFCFS(t *testing.T) {
	var s sim.Sim
	var recs []Record
	eng, err := NewPagedAttention(testConfig(&s, &recs))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		r := testRequest(int64(i+1), i, 5000-1000*i, float64(i)*0.001)
		s.At(r.ArrivalTime, func() { eng.Submit(r) })
	}
	s.Run()
	if len(recs) != 3 {
		t.Fatalf("completed %d, want 3", len(recs))
	}
	// FCFS: completion order = arrival order even though later requests
	// are shorter.
	for i, rec := range recs {
		if rec.Req.ID != int64(i+1) {
			t.Fatalf("completion order %v not FCFS", recs)
		}
	}
	// Serial: executions must not overlap.
	for i := 1; i < len(recs); i++ {
		if recs[i].Start < recs[i-1].Finish-1e-9 {
			t.Fatalf("executions overlap: %v then %v", recs[i-1], recs[i])
		}
	}
	for _, rec := range recs {
		if rec.Latency() <= 0 || rec.ExecTime() <= 0 || rec.QueueTime() < 0 {
			t.Fatalf("bad record %+v", rec)
		}
		if rec.Infeasible() {
			t.Fatalf("short request marked infeasible: %+v", rec)
		}
	}
}

func TestPrefixCacheAcceleratesSecondRequest(t *testing.T) {
	var s sim.Sim
	var recs []Record
	eng, err := NewPagedAttention(testConfig(&s, &recs))
	if err != nil {
		t.Fatal(err)
	}
	r1 := sharedPrefixRequest(1, 7, 8000, 200, 0)
	r2 := sharedPrefixRequest(2, 7, 8000, 200, 0.001)
	s.At(0, func() { eng.Submit(r1) })
	s.At(0.001, func() { eng.Submit(r2) })
	s.Run()
	if len(recs) != 2 {
		t.Fatalf("completed %d", len(recs))
	}
	if recs[0].CachedTokens != 0 {
		t.Fatalf("first request hit %d cached tokens", recs[0].CachedTokens)
	}
	if recs[1].CachedTokens < 7000 {
		t.Fatalf("second request cached = %d, want ~8000", recs[1].CachedTokens)
	}
	if recs[1].ExecTime() > recs[0].ExecTime()/3 {
		t.Fatalf("cache hit exec %.3fs not ≪ cold %.3fs", recs[1].ExecTime(), recs[0].ExecTime())
	}
}

func TestPagedAttentionSpillsOnLongRequest(t *testing.T) {
	var s sim.Sim
	var recs []Record
	cfg := testConfig(&s, &recs)
	cfg.ProfileMaxLen = 60000
	eng, err := NewPagedAttention(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// 60k tokens of KV ≈ 7.3 GiB on Llama-8B; the L4 pool (after 16 GiB
	// of weights) cannot hold it.
	r := testRequest(1, 1, 60000, 0)
	s.At(0, func() { eng.Submit(r) })
	s.Run()
	if len(recs) != 1 {
		t.Fatal("request did not complete")
	}
	if !recs[0].Infeasible() || recs[0].SpilledBytes == 0 {
		t.Fatalf("60k-token request on L4 should spill, got %+v", recs[0])
	}
}

func TestSerialHybridNoResidencyNoSpill(t *testing.T) {
	var s sim.Sim
	var recs []Record
	cfg := testConfig(&s, &recs)
	cfg.ProfileMaxLen = 60000
	eng, err := NewSerial(cfg, SerialSpec{
		Name: "prefillonly-like",
		Opts: hybridOpts(),
	})
	if err != nil {
		t.Fatal(err)
	}
	r := testRequest(1, 1, 60000, 0)
	s.At(0, func() { eng.Submit(r) })
	s.Run()
	if len(recs) != 1 || recs[0].Infeasible() {
		t.Fatalf("hybrid engine spilled on 60k tokens: %+v", recs)
	}
}

func TestChunkedPrefillSlowerThanHybridSameRequest(t *testing.T) {
	run := func(mk func(Config) (*Serial, error)) float64 {
		var s sim.Sim
		var recs []Record
		cfg := testConfig(&s, &recs)
		eng, err := mk(cfg)
		if err != nil {
			t.Fatal(err)
		}
		r := testRequest(1, 1, 18000, 0)
		s.At(0, func() { eng.Submit(r) })
		s.Run()
		return recs[0].ExecTime()
	}
	chunked := run(func(c Config) (*Serial, error) { return NewChunkedPrefill(c) })
	hybrid := run(func(c Config) (*Serial, error) {
		return NewSerial(c, SerialSpec{Name: "h", Opts: hybridOpts()})
	})
	if chunked <= hybrid {
		t.Fatalf("chunked %.3fs should exceed hybrid %.3fs", chunked, hybrid)
	}
}

func TestTensorParallelLatencyAndComm(t *testing.T) {
	single := func() float64 {
		var s sim.Sim
		var recs []Record
		eng, err := NewPagedAttention(testConfig(&s, &recs))
		if err != nil {
			t.Fatal(err)
		}
		r := testRequest(1, 1, 15000, 0)
		s.At(0, func() { eng.Submit(r) })
		s.Run()
		return recs[0].ExecTime()
	}()

	tp := func(g *hw.GPU) float64 {
		var s sim.Sim
		var recs []Record
		cfg := testConfig(&s, &recs)
		cfg.GPU = g
		eng, err := NewTensorParallel(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if eng.GPUs() != 2 {
			t.Fatal("TP should occupy 2 GPUs")
		}
		r := testRequest(1, 1, 15000, 0)
		s.At(0, func() { eng.Submit(r) })
		s.Run()
		return recs[0].ExecTime()
	}
	pcie := tp(hw.L4())
	if pcie >= single {
		t.Fatalf("TP=2 exec %.3fs should beat single-GPU %.3fs at zero load", pcie, single)
	}
	if pcie <= single/2 {
		t.Fatalf("TP=2 exec %.3fs cannot beat perfect scaling %.3fs (comm is not free)", pcie, single/2)
	}
}

func TestPipelineParallelOverlapsStages(t *testing.T) {
	var s sim.Sim
	var recs []Record
	eng, err := NewPipelineParallel(testConfig(&s, &recs))
	if err != nil {
		t.Fatal(err)
	}
	if eng.GPUs() != 2 {
		t.Fatal("PP should occupy 2 GPUs")
	}
	// Two equal requests back to back: with a 2-stage pipeline the second
	// finishes ~one stage after the first, not one full latency after.
	r1 := testRequest(1, 1, 10000, 0)
	r2 := testRequest(2, 2, 10000, 0.001)
	s.At(0, func() { eng.Submit(r1) })
	s.At(0.001, func() { eng.Submit(r2) })
	s.Run()
	if len(recs) != 2 {
		t.Fatalf("completed %d", len(recs))
	}
	full := recs[0].Finish
	gap := recs[1].Finish - recs[0].Finish
	if gap > 0.7*full {
		t.Fatalf("no pipelining: second request finished %.3fs after first (full latency %.3fs)", gap, full)
	}
}

// Regression for the `handoff = handoff[1:]` retention bug: under a deep
// sustained pipeline every stage-0 completion appended to the handoff
// queue while stage 1 advanced the slice, so the backing array retained
// every inflight ever handed off. The ring must stay bounded by the peak
// handoff depth (≈1 for symmetric stages), not the request count.
func TestPipelineHandoffBoundedUnderDeepPipeline(t *testing.T) {
	var s sim.Sim
	var recs []Record
	eng, err := NewPipelineParallel(testConfig(&s, &recs))
	if err != nil {
		t.Fatal(err)
	}
	const n = 300
	for i := 0; i < n; i++ {
		r := testRequest(int64(i+1), i, 2000, 0)
		s.At(0, func() { eng.Submit(r) })
	}
	s.Run()
	if len(recs) != n {
		t.Fatalf("completed %d of %d", len(recs), n)
	}
	if eng.handoff.Len() != 0 {
		t.Fatalf("handoff retains %d entries after drain", eng.handoff.Len())
	}
	if eng.handoff.Cap() > 16 {
		t.Fatalf("handoff backing array holds %d slots after %d requests", eng.handoff.Cap(), n)
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := NewPagedAttention(Config{}); err == nil {
		t.Error("empty config accepted")
	}
	var s sim.Sim
	cfg := Config{Model: model.Llama31_8B(), GPU: hw.L4(), Sim: &s}
	if _, err := NewPagedAttention(cfg); err == nil {
		t.Error("zero ProfileMaxLen accepted")
	}
}

func TestWeightsTooLargeRejected(t *testing.T) {
	var s sim.Sim
	cfg := Config{Model: model.Llama33_70BFP8(), GPU: hw.L4(), Sim: &s, ProfileMaxLen: 1000}
	if _, err := NewPagedAttention(cfg); err == nil {
		t.Error("70B model on L4 accepted")
	}
}

func TestReplaceSchedulerGuards(t *testing.T) {
	var s sim.Sim
	var recs []Record
	eng, err := NewPagedAttention(testConfig(&s, &recs))
	if err != nil {
		t.Fatal(err)
	}
	if err := ReplaceScheduler(eng, nil); err == nil {
		t.Error("nil scheduler accepted")
	}
	if err := ReplaceScheduler(eng, sched.NewFIFO()); err != nil {
		t.Errorf("idle replace failed: %v", err)
	}
	r := testRequest(1, 1, 5000, 0)
	s.At(0, func() {
		eng.Submit(r)
		if err := ReplaceScheduler(eng, sched.NewFIFO()); err == nil {
			t.Error("replace with work in flight accepted")
		}
	})
	s.Run()
}

// TestProfilesMemoizeTheRun: engines built with one Profiles memo run the
// profile once per key (model share, GPU, options, length) and read the
// memo afterwards, while a nil memo profiles every engine afresh.
func TestProfilesMemoizeTheRun(t *testing.T) {
	memo := Profiles{}
	cfg := Config{Model: model.Llama31_8B(), GPU: hw.L4(), Sim: &sim.Sim{}, ProfileMaxLen: 4000, Profiles: memo}
	first, err := NewPagedAttention(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(memo) != 1 {
		t.Fatalf("memo holds %d profiles after one build, want 1", len(memo))
	}
	// A memoized profile is what later builds read: halve its pool, and
	// the next engine's cache is half as large without a new run.
	for k, p := range memo {
		p.pool /= 2
		memo[k] = p
	}
	second, err := NewPagedAttention(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := second.Cache().CapacityBytes(), first.Cache().CapacityBytes()/2; got != want || len(memo) != 1 {
		t.Fatalf("second build's pool %d B with %d memo entries, want %d B from the one memoized profile", got, len(memo), want)
	}
	// Each part of the key is a separate profile: another length, another
	// strategy, another model share.
	cfg.ProfileMaxLen = 3000
	if _, err := NewPagedAttention(cfg); err != nil {
		t.Fatal(err)
	}
	if _, err := NewChunkedPrefill(cfg); err != nil {
		t.Fatal(err)
	}
	if _, err := NewTensorParallel(cfg); err != nil {
		t.Fatal(err)
	}
	if len(memo) != 4 {
		t.Fatalf("memo holds %d profiles after four distinct keys, want 4", len(memo))
	}
	// Without a memo every build profiles afresh.
	cfg.ProfileMaxLen, cfg.Profiles = 4000, nil
	fresh, err := NewPagedAttention(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if fresh.Cache().CapacityBytes() != first.Cache().CapacityBytes() {
		t.Fatalf("a fresh build's pool %d B differs from the first memoized build's %d B",
			fresh.Cache().CapacityBytes(), first.Cache().CapacityBytes())
	}
}
