package prefillonly

// One benchmark per table and figure of the paper's evaluation, plus
// ablation benches for the scheduler, suffix discarding, chunk size, λ and
// host offload. Each bench regenerates its artifact through
// internal/experiments and prints the rows once, so
// `go test -bench=. -benchmem` reproduces the entire evaluation.

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/experiments"
	"repro/internal/graph"
	"repro/internal/hw"
	"repro/internal/model"
)

// printOnce guards each bench's row dump so repeated b.N iterations don't
// spam the output.
var printOnce sync.Map

func once(name string, fn func()) {
	if _, loaded := printOnce.LoadOrStore(name, true); !loaded {
		fn()
	}
}

func BenchmarkTable1DatasetSummary(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.Table1(1)
		once("table1", func() {
			fmt.Println("\n[Table 1] dataset summary")
			for _, r := range rows {
				fmt.Printf("  %-22s users=%d requests=%d req/user=%d meanLen=%.0f total=%d tokens\n",
					r.Dataset, r.Users, r.Requests, r.RequestsPerUser, r.MeanLen, r.TotalTokens)
			}
		})
	}
}

func BenchmarkTable2MaxInputLength(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, _, err := experiments.Table2Parallel(1)
		if err != nil {
			b.Fatal(err)
		}
		once("table2", func() {
			fmt.Println("\n[Table 2] max input length (tokens); paper values in parentheses")
			paper := map[string]string{
				"PagedAttention/L4": "24,000", "PagedAttention/A100": "11,000", "PagedAttention/H100": "15,000",
				"ChunkedPrefill/L4": "46,000", "ChunkedPrefill/A100": "17,000", "ChunkedPrefill/H100": "25,000",
				"PipelineParallel/L4": "72,000", "PipelineParallel/A100": "38,000", "PipelineParallel/H100": "183,000",
				"TensorParallel/L4": "195,000", "TensorParallel/A100": "77,000", "TensorParallel/H100": "238,000",
				"PrefillOnly/L4": "130,000", "PrefillOnly/A100": "87,000", "PrefillOnly/H100": "97,000",
			}
			for _, r := range rows {
				key := r.Engine.String() + "/" + r.Scenario
				fmt.Printf("  %-18s %-6s MIL=%-7d WL1=%-5v WL2=%-5v (paper %s)\n",
					r.Engine, r.Scenario, r.MIL, r.WL1OK, r.WL2OK, paper[key])
			}
		})
	}
}

func BenchmarkTable3HardwareCatalog(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.Table3()
		once("table3", func() {
			fmt.Println("\n[Table 3] hardware and models")
			for _, r := range rows {
				fmt.Printf("  %-12s 2x %-24s %3.0f GiB %-6s %s (%.1f GiB weights)\n",
					r.Scenario, r.GPUName, r.MemoryGiB, r.Interconnect, r.ModelName, r.WeightGiB)
			}
		})
	}
}

func BenchmarkFigure3MemoryTrace(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Figure3()
		if err != nil {
			b.Fatal(err)
		}
		once("fig3", func() {
			gib := func(v int64) float64 { return float64(v) / (1 << 30) }
			fmt.Println("\n[Figure 3] 32,768-token prefill memory trace, Llama-3.1-8B")
			fmt.Printf("  standard peak %.2f GiB above weights; hybrid peak %.2f GiB; saving %.2f GiB (paper: ~2 GB)\n",
				gib(res.StandardPeak), gib(res.HybridPeak), gib(res.StandardPeak-res.HybridPeak))
			fmt.Printf("  trace events: standard %d, hybrid %d\n", len(res.Standard), len(res.Hybrid))
		})
	}
}

func BenchmarkFigure4MLPTensorSizes(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.Figure4()
		once("fig4", func() {
			fmt.Println("\n[Figure 4] MLP tensor sizes, 32,768 tokens, Llama-3.1-8B")
			for _, r := range rows {
				fmt.Printf("  %-26s %6dx%-6d %6.0f MiB  %4.1fx one-layer KV\n",
					r.Tensor, r.Shape[0], r.Shape[1], float64(r.Bytes)/(1<<20), r.VsOneLayerKV)
			}
		})
	}
}

func BenchmarkFigure5SchedulingExample(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Figure5()
		if err != nil {
			b.Fatal(err)
		}
		once("fig5", func() {
			fmt.Println("\n[Figure 5] scheduling walkthrough (paper: FIFO=1 hit, SRJF=1, calibrated=2)")
			for _, r := range rows {
				fmt.Printf("  %-18s order=%-10s hits=%d\n", r.Policy, strings.Join(r.Order, ","), r.CacheHits)
			}
		})
	}
}

// qpsGrid runs the full Figure-6/7 grid (2 datasets x 4 hardware setups x
// 5 engines x 6 rates) once and caches it for both benches.
var (
	gridOnce   sync.Once
	gridPanels []*experiments.QPSLatencyPanel
	gridErr    error
)

func qpsGrid() ([]*experiments.QPSLatencyPanel, error) {
	gridOnce.Do(func() {
		for _, sc := range experiments.Scenarios() {
			for _, ds := range []experiments.DatasetKind{experiments.PostRecommendation, experiments.CreditVerification} {
				panel, _, err := experiments.QPSLatencyParallel(sc, ds, nil, 1, 1)
				if err != nil {
					gridErr = err
					return
				}
				gridPanels = append(gridPanels, panel)
			}
		}
	})
	return gridPanels, gridErr
}

func printGrid(metric string, get func(experiments.QPSLatencyPoint) float64, panels []*experiments.QPSLatencyPanel) {
	for _, p := range panels {
		fmt.Printf("  panel %s / %s (saturation %.3f req/s)\n", p.Scenario, p.Dataset, p.SaturationQPS)
		var last experiments.EngineKind = -1
		for _, pt := range p.Points {
			if pt.Engine != last {
				fmt.Printf("    %s:\n", pt.Engine)
				last = pt.Engine
			}
			fmt.Printf("      qps %8.3f  %s %9.2fs  tput %7.3f  hit %4.2f  infeasible %4.2f\n",
				pt.QPS, metric, get(pt), pt.ThroughputRPS, pt.CacheHitRate, pt.InfeasibleFrac)
		}
	}
}

func BenchmarkFigure6QPSMeanLatency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		panels, err := qpsGrid()
		if err != nil {
			b.Fatal(err)
		}
		once("fig6", func() {
			fmt.Println("\n[Figure 6] QPS vs mean latency, all panels")
			printGrid("mean", func(p experiments.QPSLatencyPoint) float64 { return p.MeanLatency }, panels)
		})
	}
}

func BenchmarkFigure7QPSP99Latency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		panels, err := qpsGrid()
		if err != nil {
			b.Fatal(err)
		}
		once("fig7", func() {
			fmt.Println("\n[Figure 7] QPS vs P99 latency, all panels")
			printGrid("p99", func(p experiments.QPSLatencyPoint) float64 { return p.P99Latency }, panels)
		})
	}
}

func BenchmarkFigure8ThroughputNVLink(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, _, err := experiments.Figure8Parallel(1, 1)
		if err != nil {
			b.Fatal(err)
		}
		once("fig8", func() {
			fmt.Println("\n[Figure 8] credit-verification throughput, 2xH100 (paper: PrefillOnly highest both ways)")
			for _, r := range rows {
				link := "PCIe"
				if r.NVLink {
					link = "NVLink"
				}
				fmt.Printf("  %-18s %-6s %.4f req/s\n", r.Engine, link, r.ThroughputRPS)
			}
		})
	}
}

func BenchmarkFigure9ThroughputThrottling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, _, err := experiments.Figure9Parallel(1, 1)
		if err != nil {
			b.Fatal(err)
		}
		once("fig9", func() {
			fmt.Println("\n[Figure 9] post-rec throughput vs offered QPS, 2xH100 PCIe (paper: chunked throttles, PrefillOnly sustains)")
			for _, r := range rows {
				fmt.Printf("  %-18s offered %7.2f  tput %7.3f  hit %4.2f\n",
					r.Engine, r.QPS, r.ThroughputRPS, r.CacheHitRate)
			}
		})
	}
}

func BenchmarkFigure10HybridPrefillAblation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Figure10()
		if err != nil {
			b.Fatal(err)
		}
		once("fig10", func() {
			fmt.Println("\n[Figure 10] MIL ablation, Qwen-2.5-32B FP8 on A100 (paper: 7.9x vanilla)")
			base := rows[0].MIL
			for _, r := range rows {
				fmt.Printf("  %-26s %7d tokens (%.1fx vanilla)\n", r.Config, r.MIL, float64(r.MIL)/float64(base))
			}
		})
	}
}

func BenchmarkFigure11FairnessCDF(b *testing.B) {
	for i := 0; i < b.N; i++ {
		curves, _, err := experiments.Figure11Parallel(1, 1)
		if err != nil {
			b.Fatal(err)
		}
		once("fig11", func() {
			fmt.Println("\n[Figure 11] latency CDF vs λ (paper: larger λ → better P99, worse mean)")
			for _, c := range curves {
				fmt.Printf("  λ=%-5.0f mean %6.2fs  p99 %6.2fs  (%d CDF points)\n",
					c.Lambda, c.MeanLatency, c.P99Latency, len(c.CDF))
			}
		})
	}
}

func BenchmarkSection23PrefillVsDecode(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Section23(64)
		if err != nil {
			b.Fatal(err)
		}
		once("sec23", func() {
			fmt.Println("\n[§2.3] 2048-in/1-out vs 2048-in/256-out, Llama-3.1-8B on H100")
			fmt.Printf("  prefill-only %.3fs, generative %.3fs, slowdown %.2fx (paper: ~1.5x)\n",
				res.PrefillSeconds, res.GenerativeSeconds, res.Slowdown)
		})
	}
}

func BenchmarkSection63JCTProxyCorrelation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Section63()
		if err != nil {
			b.Fatal(err)
		}
		once("sec63", func() {
			fmt.Printf("\n[§6.3] Pearson(JCT, cache-miss tokens) = %.4f over %d grid points (paper: 0.987)\n",
				res.Pearson, res.Points)
		})
	}
}

// --- Ablations beyond the paper's figures ---

// BenchmarkAblationCalibrationOnOff isolates the scheduler: PrefillOnly
// with continuous calibration vs frozen-at-arrival SRJF vs FCFS, same
// hybrid executor, post-recommendation at 2x saturation.
func BenchmarkAblationCalibrationOnOff(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sc, err := experiments.ScenarioByName("L4")
		if err != nil {
			b.Fatal(err)
		}
		ds := experiments.SmallDataset(experiments.PostRecommendation, 1)
		x, err := experiments.SaturationQPS(experiments.PrefillOnly, sc, ds)
		if err != nil {
			b.Fatal(err)
		}
		type row struct {
			name string
			kind experiments.EngineKind
		}
		res1, err := experiments.Run(experiments.RunConfig{Kind: experiments.PrefillOnly, Scenario: sc, Dataset: ds, QPS: 2 * x, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		res2, err := experiments.Run(experiments.RunConfig{Kind: experiments.PagedAttention, Scenario: sc, Dataset: ds, QPS: 2 * x, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		_ = []row{}
		once("ablation-calibration", func() {
			fmt.Println("\n[Ablation] scheduling policy at 2x saturation (small WL1, 2xL4)")
			fmt.Printf("  calibrated (PrefillOnly): mean %6.2fs  hit %4.2f\n", res1.Latency.Mean, res1.CacheHitRate)
			fmt.Printf("  FCFS (PagedAttention):    mean %6.2fs  hit %4.2f\n", res2.Latency.Mean, res2.CacheHitRate)
		})
	}
}

// BenchmarkAblationSuffixDiscardMIL isolates KV retention: hybrid
// prefilling with full KV retention vs one-layer retention.
func BenchmarkAblationSuffixDiscardMIL(b *testing.B) {
	m := model.Llama31_8B()
	g := hw.L4()
	exec := graph.New(m, g)
	budget := g.UsableBytes() - m.WeightBytes()
	for i := 0; i < b.N; i++ {
		retain := graph.Options{Mode: graph.Hybrid, ChunkSize: graph.DefaultChunkSize,
			KV: graph.RetainAll, OutputPrealloc: true, InPlace: true}
		milRetain, err := exec.MaxInputLength(retain, budget)
		if err != nil {
			b.Fatal(err)
		}
		milDiscard, err := exec.MaxInputLength(graph.HybridOptions(graph.DefaultChunkSize), budget)
		if err != nil {
			b.Fatal(err)
		}
		once("ablation-suffix", func() {
			fmt.Println("\n[Ablation] suffix KV discarding (Llama-3.1-8B on L4)")
			fmt.Printf("  hybrid, full KV retained: MIL %7d tokens\n", milRetain)
			fmt.Printf("  hybrid, one-layer KV:     MIL %7d tokens (%.1fx)\n",
				milDiscard, float64(milDiscard)/float64(milRetain))
		})
	}
}

// BenchmarkAblationChunkSize sweeps the hybrid chunk size: smaller chunks
// shrink memory but add launch overhead.
func BenchmarkAblationChunkSize(b *testing.B) {
	m := model.Llama31_8B()
	g := hw.L4()
	exec := graph.New(m, g)
	budget := g.UsableBytes() - m.WeightBytes()
	for i := 0; i < b.N; i++ {
		type row struct {
			chunk int
			mil   int
			secs  float64
		}
		var rows []row
		for _, chunk := range []int{128, 256, 512, 1024, 2048} {
			mil, err := exec.MaxInputLength(graph.HybridOptions(chunk), budget)
			if err != nil {
				b.Fatal(err)
			}
			secs, err := exec.EstimateSeconds(graph.PassSpec{Total: 32768}, graph.HybridOptions(chunk))
			if err != nil {
				b.Fatal(err)
			}
			rows = append(rows, row{chunk, mil, secs})
		}
		once("ablation-chunk", func() {
			fmt.Println("\n[Ablation] hybrid chunk size (Llama-3.1-8B on L4, 32k-token pass)")
			for _, r := range rows {
				fmt.Printf("  chunk %5d: MIL %7d tokens, pass %6.3fs\n", r.chunk, r.mil, r.secs)
			}
		})
	}
}

// BenchmarkAblationLambdaSweep extends Figure 11 with a denser λ sweep.
func BenchmarkAblationLambdaSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sc, err := experiments.ScenarioByName("L4")
		if err != nil {
			b.Fatal(err)
		}
		ds := experiments.SmallDataset(experiments.PostRecommendation, 1)
		x, err := experiments.SaturationQPS(experiments.PrefillOnly, sc, ds)
		if err != nil {
			b.Fatal(err)
		}
		type row struct {
			lambda    float64
			mean, p99 float64
		}
		var rows []row
		for _, lambda := range []float64{-1, 100, 500, 1000, 5000} {
			res, err := experiments.Run(experiments.RunConfig{
				Kind: experiments.PrefillOnly, Scenario: sc, Dataset: ds,
				QPS: x, Seed: 1, Lambda: lambda,
			})
			if err != nil {
				b.Fatal(err)
			}
			shown := lambda
			if lambda < 0 {
				shown = 0
			}
			rows = append(rows, row{shown, res.Latency.Mean, res.Latency.P99})
		}
		once("ablation-lambda", func() {
			fmt.Println("\n[Ablation] λ sweep at saturation (small WL1, 2xL4)")
			for _, r := range rows {
				fmt.Printf("  λ=%-5.0f mean %6.2fs  p99 %6.2fs\n", r.lambda, r.mean, r.p99)
			}
		})
	}
}

// BenchmarkAblationHostOffload evaluates the §9 extension: PrefillOnly
// with KV discarding vs with a 64 GiB host offload tier, on a
// post-recommendation load whose working set overflows the GPU pool.
func BenchmarkAblationHostOffload(b *testing.B) {
	run := func(hostBytes int64) (mean float64, restored int) {
		sim, err := NewSimulation(SimulationConfig{
			Engine:         EnginePrefillOnly,
			GPUs:           2,
			MaxInputLen:    18000,
			HostCacheBytes: hostBytes,
		})
		if err != nil {
			b.Fatal(err)
		}
		ds := NewPostRecommendation(PostRecommendationConfig{Users: 24, PostsPerUser: 12, Seed: 9})
		if err := sim.SubmitDataset(ds, 60, 3); err != nil {
			b.Fatal(err)
		}
		recs := sim.Run()
		for _, r := range recs {
			restored += r.RestoredTokens
		}
		return SummarizeLatencies(recs).Mean, restored
	}
	for i := 0; i < b.N; i++ {
		discardMean, _ := run(0)
		offloadMean, restored := run(64 * 1 << 30)
		once("ablation-offload", func() {
			fmt.Println("\n[Ablation §9] suffix discard vs CPU offload (24 users x 12 posts at 60 req/s, 2xL4)")
			fmt.Printf("  discard (paper default): mean %6.2fs\n", discardMean)
			fmt.Printf("  64 GiB host offload:     mean %6.2fs, %d tokens restored from host\n",
				offloadMean, restored)
		})
	}
}

// BenchmarkRoutingPolicies compares the cluster routing policies
// (UserHash baseline, LeastLoaded, AffinityLoad) on Zipf-skewed and
// uniform arrivals: 4 PrefillOnly instances on L4 near aggregate
// saturation (the internal/router subsystem's headline comparison).
func BenchmarkRoutingPolicies(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, _, err := experiments.RoutingSweepParallel(1, true, 1, 1)
		if err != nil {
			b.Fatal(err)
		}
		once("routing", func() {
			fmt.Println("\n[Routing] policy comparison, 4x PrefillOnly on L4 (affinity: lower mean on skew, parity on uniform)")
			for _, r := range rows {
				fmt.Printf("  %-22s %-12s qps %6.2f  mean %6.3fs  p99 %6.3fs  hit %4.2f  balance %5.2f  rejected %d\n",
					r.Dataset, r.Policy, r.QPS, r.MeanJCT, r.P99JCT, r.CacheHitRate, r.BalanceRatio, r.Rejected)
			}
		})
	}
}

// BenchmarkEngineDispatchOverhead measures the raw per-request scheduling
// cost of the PrefillOnly engine (hashing, pinning, calibration, insert) —
// the engine-side CPU work per request, independent of modelled GPU time.
func BenchmarkEngineDispatchOverhead(b *testing.B) {
	sc, err := experiments.ScenarioByName("L4")
	if err != nil {
		b.Fatal(err)
	}
	ds := experiments.SmallDataset(experiments.PostRecommendation, 1)
	b.ResetTimer()
	reqs := 0
	for i := 0; i < b.N; i++ {
		res, err := experiments.Run(experiments.RunConfig{
			Kind: experiments.PrefillOnly, Scenario: sc, Dataset: ds, QPS: 0, Seed: 1,
		})
		if err != nil {
			b.Fatal(err)
		}
		reqs += res.Completed
	}
	b.ReportMetric(float64(reqs)/float64(b.N), "requests/op")
}
