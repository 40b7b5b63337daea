package experiments

import (
	"fmt"

	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/hw"
	"repro/internal/kvcache"
	"repro/internal/memory"
	"repro/internal/model"
	"repro/internal/sched"
)

// Figure3Result holds the two memory traces of Figure 3: prefilling 32,768
// tokens through Llama-3.1-8B with and without hybrid prefilling (both
// retain full KV, as the paper's traces do).
type Figure3Result struct {
	Tokens       int
	Standard     []memory.TracePoint
	Hybrid       []memory.TracePoint
	StandardPeak int64
	HybridPeak   int64
	// WeightBytes is the baseline the paper's y-axis sits on (the traces
	// show allocator state above the resident weights).
	WeightBytes int64
}

// Figure3 regenerates the Figure-3 traces.
func Figure3() (*Figure3Result, error) {
	const tokens = 32768
	m := model.Llama31_8B()
	exec := graph.New(m, hw.L4())
	spec := graph.PassSpec{Total: tokens}

	std, err := exec.Run(spec, graph.StandardOptions(), memory.New(0), true)
	if err != nil {
		return nil, err
	}
	hybridOpts := graph.Options{Mode: graph.Hybrid, ChunkSize: graph.DefaultChunkSize,
		KV: graph.RetainAll, OutputPrealloc: true, InPlace: true}
	hyb, err := exec.Run(spec, hybridOpts, memory.New(0), true)
	if err != nil {
		return nil, err
	}
	return &Figure3Result{
		Tokens:       tokens,
		Standard:     std.Trace,
		Hybrid:       hyb.Trace,
		StandardPeak: std.PeakBytes,
		HybridPeak:   hyb.PeakBytes,
		WeightBytes:  m.WeightBytes(),
	}, nil
}

// Figure4Row is one tensor of the Figure-4 MLP walkthrough.
type Figure4Row struct {
	Tensor       string
	Shape        [2]int
	Bytes        int64
	VsOneLayerKV float64
}

// Figure4 regenerates the MLP tensor-size inventory for a 32,768-token
// Llama-3.1-8B pass.
func Figure4() []Figure4Row {
	const n = 32768
	m := model.Llama31_8B()
	kv := m.KVBytesPerTokenLayer() * n
	row := func(name string, cols int, bytes int64) Figure4Row {
		return Figure4Row{
			Tensor:       name,
			Shape:        [2]int{n, cols},
			Bytes:        bytes,
			VsOneLayerKV: float64(bytes) / float64(kv),
		}
	}
	return []Figure4Row{
		row("input", m.Hidden, m.HiddenBytesPerToken()*n),
		row("intermediate1 (gate+up)", 2*m.Intermediate, m.MLPIntermediate1BytesPerToken()*n),
		row("intermediate2 (SwiGLU)", m.Intermediate, m.MLPIntermediate2BytesPerToken()*n),
		row("output", m.Hidden, m.HiddenBytesPerToken()*n),
		row("one-layer KV", 2*m.KVDim(), kv),
	}
}

// Figure5Result walks the four-request example of Figures 5 through the
// three schedulers and reports execution order and prefix-cache hits.
type Figure5Result struct {
	Policy string
	// Order is the execution order by request name.
	Order []string
	// CacheHits is the number of requests that hit the prefix cache.
	CacheHits int
}

// Figure5 reproduces the §6.2/§6.3 walkthrough: requests A, B, C, D arrive
// together with lengths A < C < B < D; A and D share a prefix, B and C
// share a prefix; the cache holds the state of exactly one request. FIFO
// and static SRJF each get one cache hit; SRJF with continuous calibration
// gets two.
func Figure5() ([]Figure5Result, error) {
	// Lengths in blocks of 16 tokens, A < C < B < D.
	lens := map[string]int{"A": 1600, "C": 2400, "B": 3200, "D": 4000}
	const shared = 1600 // A∩D and B∩C shared prefix length
	mk := func(name string, stream uint64, id int64) *sched.Request {
		n := lens[name]
		toks := make([]uint64, n)
		for i := range toks {
			toks[i] = stream<<32 | uint64(i)
		}
		return &sched.Request{ID: id, Tokens: toks, ArrivalTime: 0}
	}
	// A and D share stream 1 (D extends A); B and C share stream 2
	// (B extends C).
	reqs := map[string]*sched.Request{
		"A": mk("A", 1, 1),
		"D": mk("D", 1, 4),
		"C": mk("C", 2, 3),
		"B": mk("B", 2, 2),
	}

	names := func(r *sched.Request) string {
		for n, q := range reqs {
			if q == r {
				return n
			}
		}
		return "?"
	}

	run := func(policy string, mksched func(c *kvcache.Manager) sched.Scheduler) (Figure5Result, error) {
		// Cache sized to one request's full KV (the largest, D).
		cache, err := kvcache.New(kvcache.Config{
			BlockTokens:   16,
			BytesPerToken: 1,
			CapacityBytes: int64(lens["D"]),
		})
		if err != nil {
			return Figure5Result{}, err
		}
		s := mksched(cache)
		for _, n := range []string{"A", "B", "C", "D"} {
			s.Enqueue(reqs[n])
		}
		res := Figure5Result{Policy: policy}
		now := 0.0
		for {
			r := s.Next(now)
			if r == nil {
				break
			}
			hit := cache.Lookup(r.Tokens, now)
			// The paper's walkthrough counts a request as a cache
			// hit when it reuses the full shared prefix (our
			// block-granular cache can also retain partial
			// prefixes, which the idealized example abstracts
			// away).
			if hit >= shared {
				res.CacheHits++
			}
			// Execution takes time proportional to cache-miss tokens.
			now += float64(r.Len() - hit)
			cache.Insert(r.Tokens, r.Len(), now)
			res.Order = append(res.Order, names(r))
		}
		return res, nil
	}

	jctOf := func(c *kvcache.Manager) sched.JCTFunc {
		return func(r *sched.Request) float64 {
			return float64(r.Len() - c.PeekH(engine.HashesOf(r, c.BlockTokens())))
		}
	}
	var out []Figure5Result
	fifo, err := run("FIFO", func(c *kvcache.Manager) sched.Scheduler { return sched.NewFIFO() })
	if err != nil {
		return nil, err
	}
	out = append(out, fifo)
	srjf, err := run("SRJF", func(c *kvcache.Manager) sched.Scheduler { return sched.NewSRJF(jctOf(c)) })
	if err != nil {
		return nil, err
	}
	out = append(out, srjf)
	cal, err := run("SRJF+calibration", func(c *kvcache.Manager) sched.Scheduler {
		s := sched.NewCalibrated(jctOf(c), 0)
		// Incremental mode: rekey only on cache membership changes.
		engine.AttachIncremental(s, c)
		return s
	})
	if err != nil {
		return nil, err
	}
	out = append(out, cal)
	return out, nil
}

// Figure10Row is one bar of the hybrid-prefilling MIL ablation.
type Figure10Row struct {
	Config string
	MIL    int
}

// Figure10 regenerates the ablation: vanilla vLLM, chunked prefill, then
// hybrid prefilling with optimizations added one at a time, on Qwen-2.5-32B
// FP8 / one A100.
func Figure10() ([]Figure10Row, error) {
	m := modelForFigure10()
	g := hw.A100()
	exec := graph.New(m, g)
	budget := g.UsableBytes() - m.WeightBytes()
	if budget <= 0 {
		return nil, fmt.Errorf("figure10: weights do not fit")
	}
	configs := []struct {
		name string
		opts graph.Options
	}{
		{"vanilla-vllm", graph.StandardOptions()},
		{"chunked-prefill", graph.ChunkedOptions(graph.DefaultChunkSize)},
		{"hybrid-chunking", graph.Options{Mode: graph.Hybrid, ChunkSize: graph.DefaultChunkSize, KV: graph.RetainOneLayer}},
		{"hybrid+prealloc", graph.Options{Mode: graph.Hybrid, ChunkSize: graph.DefaultChunkSize, KV: graph.RetainOneLayer, OutputPrealloc: true}},
		{"hybrid+prealloc+inplace", graph.HybridOptions(graph.DefaultChunkSize)},
	}
	out := make([]Figure10Row, 0, len(configs))
	for _, c := range configs {
		mil, err := exec.MaxInputLength(c.opts, budget)
		if err != nil {
			return nil, fmt.Errorf("figure10 %s: %w", c.name, err)
		}
		out = append(out, Figure10Row{Config: c.name, MIL: mil})
	}
	return out, nil
}
