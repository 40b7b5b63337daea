package experiments

import (
	"testing"
)

func TestTable1MatchesPaper(t *testing.T) {
	rows := Table1(1)
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	pr, cv := rows[0], rows[1]
	if pr.Users != 20 || pr.Requests != 1000 {
		t.Fatalf("post-rec row: %+v", pr)
	}
	if pr.TotalTokens < 11_000_000 || pr.TotalTokens > 18_000_000 {
		t.Fatalf("post-rec tokens = %d, want ~14M", pr.TotalTokens)
	}
	if cv.Users != 60 || cv.Requests != 60 {
		t.Fatalf("credit row: %+v", cv)
	}
	if cv.TotalTokens < 2_400_000 || cv.TotalTokens > 3_700_000 {
		t.Fatalf("credit tokens = %d, want ~3M", cv.TotalTokens)
	}
}

func TestTable2Shapes(t *testing.T) {
	rows, err := Table2()
	if err != nil {
		t.Fatal(err)
	}
	mil := make(map[string]map[string]int)
	for _, r := range rows {
		if mil[r.Scenario] == nil {
			mil[r.Scenario] = map[string]int{}
		}
		mil[r.Scenario][r.Engine.String()] = r.MIL
	}
	for _, scen := range []string{"L4", "A100", "H100"} {
		m := mil[scen]
		// Non-parallel ordering: PagedAttention < ChunkedPrefill < PrefillOnly.
		if !(m["PagedAttention"] < m["ChunkedPrefill"] && m["ChunkedPrefill"] < m["PrefillOnly"]) {
			t.Errorf("%s: ordering broken: %v", scen, m)
		}
		// Headline claim: PrefillOnly expands MIL vs non-parallel
		// baselines by a large factor (paper: up to 5x).
		if m["PrefillOnly"] < 3*m["PagedAttention"] {
			t.Errorf("%s: PrefillOnly %d not >=3x PagedAttention %d", scen, m["PrefillOnly"], m["PagedAttention"])
		}
		// Parallelization also expands MIL beyond PagedAttention.
		if m["TensorParallel"] <= m["PagedAttention"] || m["PipelineParallel"] <= m["PagedAttention"] {
			t.Errorf("%s: parallel engines should beat PagedAttention: %v", scen, m)
		}
	}
	// Feasibility marks: PagedAttention cannot run WL2 anywhere; the
	// parallel engines and PrefillOnly run WL2 on A100/H100-class memory.
	for _, r := range rows {
		if r.Engine == PagedAttention && r.WL2OK {
			t.Errorf("PagedAttention marked WL2-feasible on %s (MIL %d)", r.Scenario, r.MIL)
		}
		if r.Engine == PrefillOnly && !r.WL1OK {
			t.Errorf("PrefillOnly not WL1-feasible on %s (MIL %d)", r.Scenario, r.MIL)
		}
	}
}

func TestTable3Catalog(t *testing.T) {
	rows := Table3()
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.WeightGiB <= 0 || r.MemoryGiB <= 0 || r.GPUCount != 2 {
			t.Fatalf("bad row %+v", r)
		}
	}
	if rows[3].Interconnect != "NVLink" {
		t.Fatalf("last scenario should be NVLink: %+v", rows[3])
	}
}

func TestFigure3Shape(t *testing.T) {
	res, err := Figure3()
	if err != nil {
		t.Fatal(err)
	}
	saved := float64(res.StandardPeak-res.HybridPeak) / (1 << 30)
	if saved < 1 || saved > 4 {
		t.Fatalf("peak saving = %.2f GiB, want ~2", saved)
	}
	if len(res.Standard) == 0 || len(res.Hybrid) == 0 {
		t.Fatal("empty traces")
	}
}

func TestFigure4Ratios(t *testing.T) {
	rows := Figure4()
	byName := map[string]Figure4Row{}
	for _, r := range rows {
		byName[r.Tensor] = r
	}
	if got := byName["intermediate1 (gate+up)"].VsOneLayerKV; got != 14 {
		t.Fatalf("intermediate1 ratio = %v, want 14", got)
	}
	if got := byName["intermediate2 (SwiGLU)"].VsOneLayerKV; got != 7 {
		t.Fatalf("intermediate2 ratio = %v, want 7", got)
	}
	if byName["intermediate1 (gate+up)"].Shape != [2]int{32768, 28672} {
		t.Fatalf("intermediate1 shape = %v", byName["intermediate1 (gate+up)"].Shape)
	}
}

// Figure 5's exact claim: FIFO and static SRJF get 1 cache hit; calibrated
// SRJF gets 2 by scheduling D right after A.
func TestFigure5CacheHits(t *testing.T) {
	rows, err := Figure5()
	if err != nil {
		t.Fatal(err)
	}
	byPolicy := map[string]Figure5Result{}
	for _, r := range rows {
		byPolicy[r.Policy] = r
	}
	if h := byPolicy["FIFO"].CacheHits; h != 1 {
		t.Errorf("FIFO cache hits = %d (%v), want 1", h, byPolicy["FIFO"].Order)
	}
	if h := byPolicy["SRJF"].CacheHits; h != 1 {
		t.Errorf("SRJF cache hits = %d (%v), want 1", h, byPolicy["SRJF"].Order)
	}
	if h := byPolicy["SRJF+calibration"].CacheHits; h != 2 {
		t.Errorf("calibrated cache hits = %d (%v), want 2", h, byPolicy["SRJF+calibration"].Order)
	}
	// Orders: FIFO = arrival; SRJF = shortest-first A,C,B,D; calibrated
	// schedules D second.
	if o := byPolicy["SRJF"].Order; len(o) == 4 && !(o[0] == "A" && o[1] == "C") {
		t.Errorf("SRJF order = %v, want A,C,...", o)
	}
	if o := byPolicy["SRJF+calibration"].Order; len(o) == 4 && !(o[0] == "A" && o[1] == "D") {
		t.Errorf("calibrated order = %v, want A,D,...", o)
	}
}

func TestFigure10Shape(t *testing.T) {
	rows, err := Figure10()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Monotone improvement across the ablation.
	for i := 1; i < len(rows); i++ {
		if rows[i].MIL <= rows[i-1].MIL {
			t.Errorf("ablation not monotone: %v", rows)
		}
	}
	// Paper: full hybrid ≈ 7.9x vanilla vLLM. Our allocator model is
	// exact (no PyTorch fragmentation or framework buffers), so the gain
	// lands higher; EXPERIMENTS.md records the deviation.
	ratio := float64(rows[4].MIL) / float64(rows[0].MIL)
	if ratio < 4 || ratio > 25 {
		t.Errorf("hybrid/vanilla MIL ratio = %.1f, want >>1 (paper 7.9)", ratio)
	}
}

func TestSection23Ratio(t *testing.T) {
	res, err := Section23(64)
	if err != nil {
		t.Fatal(err)
	}
	if res.Slowdown < 1.2 || res.Slowdown > 2.5 {
		t.Fatalf("generative slowdown = %.2fx, want ~1.5x", res.Slowdown)
	}
}

func TestSection63Correlation(t *testing.T) {
	res, err := Section63()
	if err != nil {
		t.Fatal(err)
	}
	if res.Pearson < 0.95 || res.Pearson > 1 {
		t.Fatalf("proxy correlation = %.4f, want ~0.987", res.Pearson)
	}
}

// A scaled-down Figure-6-style run: PrefillOnly must complete everything
// and beat PagedAttention on mean latency at high offered load.
func TestRunSmallSweep(t *testing.T) {
	sc, err := ScenarioByName("L4")
	if err != nil {
		t.Fatal(err)
	}
	ds := SmallDataset(PostRecommendation, 1)
	x, err := SaturationQPS(PrefillOnly, sc, ds)
	if err != nil {
		t.Fatal(err)
	}
	if x <= 0 {
		t.Fatal("zero saturation throughput")
	}
	po, err := Run(RunConfig{Kind: PrefillOnly, Scenario: sc, Dataset: ds, QPS: 2 * x, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	pa, err := Run(RunConfig{Kind: PagedAttention, Scenario: sc, Dataset: ds, QPS: 2 * x, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if po.Completed != len(ds.Requests) || pa.Completed != len(ds.Requests) {
		t.Fatalf("incomplete runs: %d, %d", po.Completed, pa.Completed)
	}
	// At this scale both engines cache well; PrefillOnly must at least
	// not lose (the decisive wins appear at Table-1 scale — see the
	// Figure 6/9 benches).
	if po.Latency.Mean > 1.10*pa.Latency.Mean {
		t.Errorf("PrefillOnly mean %.2fs well above PagedAttention %.2fs at 2x saturation",
			po.Latency.Mean, pa.Latency.Mean)
	}
	if po.CacheHitRate < 0.3 {
		t.Errorf("PrefillOnly hit rate = %.2f on post-recommendation, want substantial", po.CacheHitRate)
	}
}

func TestRunValidation(t *testing.T) {
	sc, _ := ScenarioByName("L4")
	if _, err := Run(RunConfig{Kind: PrefillOnly, Scenario: sc}); err == nil {
		t.Error("nil dataset accepted")
	}
	if _, err := ScenarioByName("TPU"); err == nil {
		t.Error("unknown scenario accepted")
	}
}

func TestEngineKindStrings(t *testing.T) {
	for _, k := range AllEngines() {
		if k.String() == "" {
			t.Fatal("empty engine name")
		}
	}
	if TensorParallel.engine().GPUs() != 2 || PrefillOnly.engine().GPUs() != 1 {
		t.Fatal("parallel kinds must span a GPU pair, serial kinds one GPU")
	}
}
