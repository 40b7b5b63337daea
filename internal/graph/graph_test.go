package graph

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/hw"
	"repro/internal/memory"
	"repro/internal/model"
)

func l4_8b() *Executor { return New(model.Llama31_8B(), hw.L4()) }
func h100() *Executor  { return New(model.Llama33_70BFP8(), hw.H100PCIe()) }
func a100_32b() *Executor {
	return New(model.Qwen32BFP8(), hw.A100())
}

func mustRun(t *testing.T, e *Executor, spec PassSpec, opts Options, trace bool) Result {
	t.Helper()
	res, err := e.Run(spec, opts, memory.New(0), trace)
	if err != nil {
		t.Fatalf("Run(%+v, %+v): %v", spec, opts, err)
	}
	return res
}

// Figure 3: hybrid prefilling reduces the peak memory of a 32,768-token
// Llama-3.1-8B prefill by roughly 2 GB (both sides retain full KV, as the
// paper's trace does).
func TestFigure3HybridPeakReduction(t *testing.T) {
	e := l4_8b()
	spec := PassSpec{Total: 32768}
	std := mustRun(t, e, spec, StandardOptions(), false)
	hybridRetain := Options{Mode: Hybrid, ChunkSize: DefaultChunkSize, KV: RetainAll,
		OutputPrealloc: true, InPlace: true}
	hyb := mustRun(t, e, spec, hybridRetain, false)
	savedGB := float64(std.PeakBytes-hyb.PeakBytes) / float64(hw.GiB)
	if savedGB < 1.0 || savedGB > 4.0 {
		t.Fatalf("hybrid peak saving = %.2f GiB, want ~2 GiB (std=%.2f hyb=%.2f)",
			savedGB, float64(std.PeakBytes)/float64(hw.GiB), float64(hyb.PeakBytes)/float64(hw.GiB))
	}
}

// With suffix discarding (RetainOneLayer) the hybrid working set loses the
// full-depth KV as well.
func TestHybridDiscardPeakFarBelowStandard(t *testing.T) {
	e := l4_8b()
	spec := PassSpec{Total: 32768}
	std := mustRun(t, e, spec, StandardOptions(), false)
	po := mustRun(t, e, spec, HybridOptions(DefaultChunkSize), false)
	if po.PeakBytes*3 > std.PeakBytes {
		t.Fatalf("PrefillOnly peak %.2f GiB not well below standard %.2f GiB",
			float64(po.PeakBytes)/float64(hw.GiB), float64(std.PeakBytes)/float64(hw.GiB))
	}
	if po.KVRetainedBytes != 0 {
		t.Fatalf("suffix discarding retained %d KV bytes, want 0", po.KVRetainedBytes)
	}
	if std.KVRetainedBytes != e.model.KVBytes(32768) {
		t.Fatalf("standard retained %d KV bytes, want full %d",
			std.KVRetainedBytes, e.model.KVBytes(32768))
	}
}

// Hybrid prefilling must not slow the pass down meaningfully (the paper's
// claim: MIL gains come "without hurting the throughput").
func TestHybridTimeCloseToStandard(t *testing.T) {
	e := l4_8b()
	spec := PassSpec{Total: 32768}
	std := mustRun(t, e, spec, StandardOptions(), false)
	hyb := mustRun(t, e, spec, HybridOptions(DefaultChunkSize), false)
	ratio := hyb.Seconds / std.Seconds
	if ratio > 1.05 || ratio < 0.95 {
		t.Fatalf("hybrid/standard time ratio = %.3f, want ≈1", ratio)
	}
}

// Chunked prefill reduces attention kernel efficiency: ~14% end-to-end
// slowdown at chunk 512 on a 20k-token request (§2.5).
func TestChunkedPrefillSlowdown(t *testing.T) {
	e := l4_8b()
	spec := PassSpec{Total: 20000}
	std := mustRun(t, e, spec, StandardOptions(), false)
	chk := mustRun(t, e, spec, ChunkedOptions(512), false)
	slowdown := chk.Seconds/std.Seconds - 1
	if slowdown < 0.05 || slowdown > 0.30 {
		t.Fatalf("chunked slowdown = %.1f%%, want ~14%%", slowdown*100)
	}
}

// Prefix-cache hits cut pass time: a 50%-cached request must be much
// cheaper than a cold one and more expensive than a 100%-cached one.
func TestCachedPrefixReducesTime(t *testing.T) {
	e := l4_8b()
	cold := mustRun(t, e, PassSpec{Total: 20000}, HybridOptions(512), false)
	half := mustRun(t, e, PassSpec{Total: 20000, Cached: 10000}, HybridOptions(512), false)
	full := mustRun(t, e, PassSpec{Total: 20000, Cached: 20000}, HybridOptions(512), false)
	if !(full.Seconds < half.Seconds && half.Seconds < cold.Seconds) {
		t.Fatalf("times not ordered: full=%g half=%g cold=%g", full.Seconds, half.Seconds, cold.Seconds)
	}
	if half.Seconds > 0.65*cold.Seconds {
		t.Fatalf("half-cached pass %.3fs should be well under 65%% of cold %.3fs", half.Seconds, cold.Seconds)
	}
}

// EstimateSeconds must track the replay closely (engines rely on it).
func TestEstimateMatchesReplay(t *testing.T) {
	e := a100_32b()
	for _, opts := range []Options{
		StandardOptions(),
		ChunkedOptions(512),
		HybridOptions(512),
		{Mode: Hybrid, ChunkSize: 256, KV: RetainOneLayer}, // no optimizations
	} {
		for _, spec := range []PassSpec{
			{Total: 5000},
			{Total: 40000},
			{Total: 40000, Cached: 17000},
		} {
			res := mustRun(t, e, spec, opts, false)
			est, err := e.EstimateSeconds(spec, opts)
			if err != nil {
				t.Fatal(err)
			}
			if diff := math.Abs(est-res.Seconds) / res.Seconds; diff > 0.02 {
				t.Errorf("opts=%+v spec=%+v: estimate %.4fs vs replay %.4fs (%.1f%% off)",
					opts, spec, est, res.Seconds, diff*100)
			}
		}
	}
}

// MIL ordering on every paper hardware/model pair: hybrid with discarding
// beats chunked, which beats standard (Table 2 / Figure 10 shape).
func TestMILOrdering(t *testing.T) {
	for _, e := range []*Executor{l4_8b(), a100_32b(), h100()} {
		budget := e.gpu.UsableBytes() - e.model.WeightBytes()
		if budget <= 0 {
			t.Fatalf("%s: weights do not fit", e.model.Name)
		}
		std, err := e.MaxInputLength(StandardOptions(), budget)
		if err != nil {
			t.Fatal(err)
		}
		chk, err := e.MaxInputLength(ChunkedOptions(512), budget)
		if err != nil {
			t.Fatal(err)
		}
		po, err := e.MaxInputLength(HybridOptions(512), budget)
		if err != nil {
			t.Fatal(err)
		}
		if !(std < chk && chk < po) {
			t.Errorf("%s on %s: MIL ordering std=%d chunked=%d prefillonly=%d, want std<chunked<prefillonly",
				e.model.Name, e.gpu.Name, std, chk, po)
		}
		if po < 3*std {
			t.Errorf("%s: PrefillOnly MIL %d should be >=3x standard %d", e.model.Name, po, std)
		}
	}
}

// Figure 10 ablation: each hybrid optimization strictly increases MIL.
func TestFigure10AblationMonotone(t *testing.T) {
	e := a100_32b()
	budget := e.gpu.UsableBytes() - e.model.WeightBytes()
	chunkOnly := Options{Mode: Hybrid, ChunkSize: 512, KV: RetainOneLayer}
	prealloc := chunkOnly
	prealloc.OutputPrealloc = true
	inplace := prealloc
	inplace.InPlace = true

	m0, err := e.MaxInputLength(chunkOnly, budget)
	if err != nil {
		t.Fatal(err)
	}
	m1, err := e.MaxInputLength(prealloc, budget)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := e.MaxInputLength(inplace, budget)
	if err != nil {
		t.Fatal(err)
	}
	if !(m0 < m1 && m1 < m2) {
		t.Fatalf("ablation MIL not monotone: chunking=%d +prealloc=%d +inplace=%d", m0, m1, m2)
	}
}

// tagPeaks returns each tag's peak live bytes over an allocator trace.
func tagPeaks(trace []memory.TracePoint) map[string]int64 {
	peaks := make(map[string]int64)
	live := make(map[string]int64)
	for _, p := range trace {
		switch p.Event {
		case "alloc":
			live[p.Tag] += p.Bytes
		case "free":
			live[p.Tag] -= p.Bytes
		}
		peaks[p.Tag] = max(peaks[p.Tag], live[p.Tag])
	}
	return peaks
}

func TestTraceShowsMLPSpikes(t *testing.T) {
	e := l4_8b()
	res := mustRun(t, e, PassSpec{Total: 8192}, StandardOptions(), true)
	peaks := tagPeaks(res.Trace)
	if peaks["mlp.intermediate1"] == 0 {
		t.Fatal("trace has no mlp.intermediate1 allocations")
	}
	// The intermediate-1 spike is 14x the one-layer KV (Figure 4).
	kv := e.model.KVBytesPerTokenLayer() * 8192
	if peaks["mlp.intermediate1"] != 14*kv {
		t.Fatalf("intermediate1 peak = %d, want %d", peaks["mlp.intermediate1"], 14*kv)
	}
	// Timestamps must be non-decreasing (simulated clock).
	for i := 1; i < len(res.Trace); i++ {
		if res.Trace[i].Time < res.Trace[i-1].Time {
			t.Fatalf("trace time went backwards at %d", i)
		}
	}
}

func TestValidation(t *testing.T) {
	e := l4_8b()
	if _, err := e.Run(PassSpec{Total: 0}, StandardOptions(), memory.New(0), false); err == nil {
		t.Error("accepted zero-length pass")
	}
	if _, err := e.Run(PassSpec{Total: 10, Cached: 11}, StandardOptions(), memory.New(0), false); err == nil {
		t.Error("accepted cached > total")
	}
	bad := Options{Mode: Chunked} // no chunk size
	if err := bad.Validate(); err == nil {
		t.Error("accepted chunked without chunk size")
	}
	bad = Options{Mode: Chunked, ChunkSize: 512, KV: RetainOneLayer}
	if err := bad.Validate(); err == nil {
		t.Error("accepted chunked with one-layer KV retention")
	}
	bad = Options{Mode: Standard, OutputPrealloc: true}
	if err := bad.Validate(); err == nil {
		t.Error("accepted standard mode with hybrid optimizations")
	}
}

func TestFullyCachedPassIsCheap(t *testing.T) {
	e := l4_8b()
	full := mustRun(t, e, PassSpec{Total: 30000, Cached: 30000}, HybridOptions(512), false)
	cold := mustRun(t, e, PassSpec{Total: 30000}, HybridOptions(512), false)
	if full.Seconds > cold.Seconds/100 {
		t.Fatalf("fully-cached pass %.5fs not ≪ cold %.3fs", full.Seconds, cold.Seconds)
	}
}

// Property: peak memory and time are monotone non-decreasing in request
// length for every mode.
func TestMonotoneInLength(t *testing.T) {
	e := l4_8b()
	modes := []Options{StandardOptions(), ChunkedOptions(512), HybridOptions(512)}
	f := func(a, b uint16) bool {
		n1 := int(a)%20000 + 1
		n2 := n1 + int(b)%20000 + 1
		for _, opts := range modes {
			r1, err := e.Run(PassSpec{Total: n1}, opts, memory.New(0), false)
			if err != nil {
				return false
			}
			r2, err := e.Run(PassSpec{Total: n2}, opts, memory.New(0), false)
			if err != nil {
				return false
			}
			if r2.PeakBytes < r1.PeakBytes || r2.Seconds < r1.Seconds {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// Fits must agree with MaxInputLength at the boundary.
func TestFitsConsistentWithMIL(t *testing.T) {
	e := l4_8b()
	budget := int64(4) * hw.GiB
	mil, err := e.MaxInputLength(HybridOptions(512), budget)
	if err != nil {
		t.Fatal(err)
	}
	if mil <= 0 {
		t.Fatal("MIL should be positive for a 4GiB budget")
	}
	ok, err := e.Fits(mil, HybridOptions(512), budget)
	if err != nil || !ok {
		t.Fatalf("Fits(MIL=%d) = %v, %v; want true", mil, ok, err)
	}
	ok, err = e.Fits(mil+2000, HybridOptions(512), budget)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatalf("Fits(MIL+2000) = true; MIL=%d not maximal", mil)
	}
}

func TestShardReducesFootprint(t *testing.T) {
	full := model.Llama31_8B()
	half := full.MustShard(2, 1)
	if half.WeightBytes() >= full.WeightBytes() {
		t.Fatal("TP shard did not shrink weights")
	}
	if half.KVBytesPerToken() >= full.KVBytesPerToken() {
		t.Fatal("TP shard did not shrink KV")
	}
	pp := full.MustShard(1, 2)
	if pp.Layers != full.Layers/2 {
		t.Fatal("PP shard did not halve layers")
	}
}

func TestDecodeStepMemoryBound(t *testing.T) {
	e := New(model.Llama31_8B(), hw.H100PCIe())
	t1 := e.DecodeStepSeconds(2048, 1)
	t64 := e.DecodeStepSeconds(2048, 64)
	if t64 >= t1 {
		t.Fatal("batched decode should amortize weight reads")
	}
	if t1 < float64(e.model.WeightBytes())/e.gpu.MemBWBytes {
		t.Fatal("unbatched decode cannot beat the weight-streaming bound")
	}
}
