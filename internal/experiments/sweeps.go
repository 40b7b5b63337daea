package experiments

import (
	"fmt"

	"repro/internal/metrics"
	"repro/internal/workload"
)

// QPSLatencyPoint is one (engine, qps) point of Figures 6 and 7.
type QPSLatencyPoint struct {
	Engine         EngineKind
	QPS            float64
	MeanLatency    float64
	P99Latency     float64
	ThroughputRPS  float64
	CacheHitRate   float64
	InfeasibleFrac float64
}

// QPSLatencyPanel is one panel of Figures 6/7 (a scenario × dataset pair).
type QPSLatencyPanel struct {
	Scenario      string
	Dataset       string
	SaturationQPS float64
	Points        []QPSLatencyPoint
}

// QPSLatencyParallel regenerates one Figure-6/7 panel on the cell
// executor: it measures PrefillOnly's saturation throughput x, then
// sweeps every engine over x·multipliers. Engines may be restricted (nil =
// all five).
func QPSLatencyParallel(sc Scenario, kind DatasetKind, engines []EngineKind, seed int64, parallel int) (*QPSLatencyPanel, CellStats, error) {
	return QPSLatencyOn(sc, kind.String(), kind.Generate(seed), engines, seed, parallel)
}

// QPSLatencyOn sweeps the engines × QPSGridMultipliers grid over an
// explicit base dataset (cmd/prefillbench uses it for scaled-down smoke
// panels). The base is treated as immutable: the saturation run and every
// grid cell execute against their own clone. Cells use the full-size
// panel's per-multiplier seeding (seed + mult*100) — the scaled-down
// smoke panel previously seeded every cell with the bare seed, so its
// numbers shifted once when it was unified onto this path.
func QPSLatencyOn(sc Scenario, label string, base *workload.Dataset, engines []EngineKind, seed int64, parallel int) (*QPSLatencyPanel, CellStats, error) {
	if engines == nil {
		engines = AllEngines()
	}
	sat, satStats, err := runCells(1, 1, func(int) (float64, error) {
		return SaturationQPS(PrefillOnly, sc, base.Clone())
	})
	if err != nil {
		return nil, satStats, fmt.Errorf("saturation on %s/%s: %w", sc.Name, label, err)
	}
	x := sat[0]
	type cell struct {
		eng  EngineKind
		mult float64
	}
	var cells []cell
	for _, eng := range engines {
		for _, mult := range QPSGridMultipliers {
			cells = append(cells, cell{eng, mult})
		}
	}
	points, runStats, err := runCells(parallel, len(cells), func(i int) (QPSLatencyPoint, error) {
		c := cells[i]
		qps := x * c.mult
		res, err := Run(RunConfig{
			Kind: c.eng, Scenario: sc, Dataset: base.Clone(), QPS: qps, Seed: seed + int64(c.mult*100),
		})
		if err != nil {
			return QPSLatencyPoint{}, fmt.Errorf("%v at %.3f qps on %s/%s: %w", c.eng, qps, sc.Name, label, err)
		}
		return QPSLatencyPoint{
			Engine:         c.eng,
			QPS:            qps,
			MeanLatency:    res.Latency.Mean,
			P99Latency:     res.Latency.P99,
			ThroughputRPS:  res.ThroughputRPS,
			CacheHitRate:   res.CacheHitRate,
			InfeasibleFrac: res.InfeasibleFrac,
		}, nil
	})
	if err != nil {
		return nil, satStats.Merge(runStats), err
	}
	panel := &QPSLatencyPanel{Scenario: sc.Name, Dataset: label, SaturationQPS: x, Points: points}
	return panel, satStats.Merge(runStats), nil
}

// Figure8Row is one bar of Figure 8: saturation throughput of an engine on
// credit verification, 2×H100, with and without NVLink.
type Figure8Row struct {
	Engine        EngineKind
	NVLink        bool
	ThroughputRPS float64
}

// Figure8Parallel regenerates the NVLink throughput comparison on the
// cell executor: each (scenario, engine) saturation measurement is one
// cell on its own dataset clone.
func Figure8Parallel(seed int64, parallel int) ([]Figure8Row, CellStats, error) {
	base := CreditVerification.Generate(seed)
	type cell struct {
		scName string
		eng    EngineKind
	}
	var cells []cell
	for _, scName := range []string{"H100", "H100-NVLink"} {
		for _, eng := range []EngineKind{PrefillOnly, PipelineParallel, TensorParallel} {
			cells = append(cells, cell{scName, eng})
		}
	}
	return runCells(parallel, len(cells), func(i int) (Figure8Row, error) {
		c := cells[i]
		sc, err := ScenarioByName(c.scName)
		if err != nil {
			return Figure8Row{}, err
		}
		tput, err := SaturationQPS(c.eng, sc, base.Clone())
		if err != nil {
			return Figure8Row{}, fmt.Errorf("figure8 %v on %s: %w", c.eng, c.scName, err)
		}
		return Figure8Row{Engine: c.eng, NVLink: c.scName == "H100-NVLink", ThroughputRPS: tput}, nil
	})
}

// Figure9Point is one point of the throughput-vs-QPS curves of Figure 9.
type Figure9Point struct {
	Engine        EngineKind
	QPS           float64
	ThroughputRPS float64
	CacheHitRate  float64
}

// Figure9Parallel regenerates the prefix-cache-throttling study on the
// cell executor: post recommendation on 2×H100 (no NVLink), throughput as
// offered QPS grows, for PrefillOnly, chunked prefill, PP and TP.
func Figure9Parallel(seed int64, parallel int) ([]Figure9Point, CellStats, error) {
	sc, err := ScenarioByName("H100")
	if err != nil {
		return nil, CellStats{}, err
	}
	base := PostRecommendation.Generate(seed)
	sat, satStats, err := runCells(1, 1, func(int) (float64, error) {
		return SaturationQPS(PrefillOnly, sc, base.Clone())
	})
	if err != nil {
		return nil, satStats, err
	}
	x := sat[0]
	type cell struct {
		eng  EngineKind
		mult float64
	}
	var cells []cell
	for _, eng := range []EngineKind{PrefillOnly, ChunkedPrefill, PipelineParallel, TensorParallel} {
		for _, mult := range []float64{0.25, 0.5, 1, 1.5, 2, 3, 4} {
			cells = append(cells, cell{eng, mult})
		}
	}
	out, runStats, err := runCells(parallel, len(cells), func(i int) (Figure9Point, error) {
		c := cells[i]
		qps := x * c.mult
		res, err := Run(RunConfig{Kind: c.eng, Scenario: sc, Dataset: base.Clone(), QPS: qps, Seed: seed})
		if err != nil {
			return Figure9Point{}, fmt.Errorf("figure9 %v at %.2f: %w", c.eng, qps, err)
		}
		return Figure9Point{
			Engine: c.eng, QPS: qps,
			ThroughputRPS: res.ThroughputRPS,
			CacheHitRate:  res.CacheHitRate,
		}, nil
	})
	return out, satStats.Merge(runStats), err
}

// Figure11Curve is one CDF of Figure 11 (a fairness-parameter setting).
type Figure11Curve struct {
	Lambda      float64
	MeanLatency float64
	P99Latency  float64
	CDF         []metrics.CDFPoint
}

// Figure11Parallel regenerates the λ sensitivity study on the cell
// executor: latency CDFs of PrefillOnly under λ ∈ {0, 200, 2000} on post
// recommendation at the saturation rate (enough queueing for SRJF
// starvation to appear, not so much that every policy thrashes).
func Figure11Parallel(seed int64, parallel int) ([]Figure11Curve, CellStats, error) {
	sc, err := ScenarioByName("L4")
	if err != nil {
		return nil, CellStats{}, err
	}
	base := PostRecommendation.Generate(seed)
	sat, satStats, err := runCells(1, 1, func(int) (float64, error) {
		return SaturationQPS(PrefillOnly, sc, base.Clone())
	})
	if err != nil {
		return nil, satStats, err
	}
	qps := sat[0]
	lambdas := []float64{-1, 200, 2000} // -1 encodes literal 0
	out, runStats, err := runCells(parallel, len(lambdas), func(i int) (Figure11Curve, error) {
		lambda := lambdas[i]
		res, err := Run(RunConfig{Kind: PrefillOnly, Scenario: sc, Dataset: base.Clone(), QPS: qps, Seed: seed, Lambda: lambda})
		if err != nil {
			return Figure11Curve{}, fmt.Errorf("figure11 λ=%v: %w", lambda, err)
		}
		shown := lambda
		if lambda < 0 {
			shown = 0
		}
		return Figure11Curve{
			Lambda:      shown,
			MeanLatency: res.Latency.Mean,
			P99Latency:  res.Latency.P99,
			CDF:         metrics.CDF(res.Latencies, 200),
		}, nil
	})
	return out, satStats.Merge(runStats), err
}

// SmallDataset scales a dataset kind down for fast runs (tests and smoke
// benches): fewer users, shorter credit histories.
func SmallDataset(kind DatasetKind, seed int64) *workload.Dataset {
	if kind == CreditVerification {
		return workload.CreditVerification(workload.CreditVerificationConfig{Users: 8, Seed: seed})
	}
	return workload.PostRecommendation(workload.PostRecommendationConfig{Users: 8, PostsPerUser: 12, Seed: seed})
}
