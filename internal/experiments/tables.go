package experiments

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/model"
)

// Table1Row summarizes one dataset (paper Table 1).
type Table1Row struct {
	Dataset         string
	Users           int
	Requests        int
	RequestsPerUser int
	MeanLen         float64
	MaxLen          int
	TotalTokens     int64
}

// Table1 regenerates the dataset summary.
func Table1(seed int64) []Table1Row {
	out := make([]Table1Row, 0, 2)
	for _, kind := range []DatasetKind{PostRecommendation, CreditVerification} {
		d := kind.Generate(seed)
		out = append(out, Table1Row{
			Dataset:         d.Name,
			Users:           d.Users,
			Requests:        len(d.Requests),
			RequestsPerUser: d.RequestsPerUser,
			MeanLen:         d.MeanLen(),
			MaxLen:          d.MaxLen,
			TotalTokens:     d.TotalTokens(),
		})
	}
	return out
}

// Table2Row is one engine×GPU cell of the paper's Table 2.
type Table2Row struct {
	Engine   EngineKind
	Scenario string
	// MIL is the maximum input length in tokens.
	MIL int
	// WL1OK/WL2OK mark whether the post-recommendation (WL1) and
	// credit-verification (WL2) workloads fit without the spill fallback.
	WL1OK bool
	WL2OK bool
}

// wl1MaxLen and wl2MaxLen are the longest request lengths of the two
// Table-1 workloads (profile/history max plus post and template).
const (
	wl1MaxLen = 17000 + 150 + 32
	wl2MaxLen = 60000 + 32
)

// milFor computes the maximum input length of one engine configuration on
// one device, from the graph memory model.
func milFor(kind EngineKind, sc Scenario) (int, error) {
	m := sc.Model
	opts := graph.StandardOptions()
	switch kind {
	case PrefillOnly:
		opts = graph.HybridOptions(graph.DefaultChunkSize)
	case ChunkedPrefill:
		opts = graph.ChunkedOptions(graph.DefaultChunkSize)
	case TensorParallel:
		var err error
		m, err = m.Shard(2, 1)
		if err != nil {
			return 0, err
		}
	case PipelineParallel:
		var err error
		m, err = m.Shard(1, 2)
		if err != nil {
			return 0, err
		}
	case PagedAttention:
		// standard options
	default:
		return 0, fmt.Errorf("experiments: unknown engine kind %v", kind)
	}
	exec := graph.New(m, sc.GPU)
	budget := sc.GPU.UsableBytes() - m.WeightBytes()
	if budget <= 0 {
		return 0, nil
	}
	return exec.MaxInputLength(opts, budget)
}

// Table2Parallel regenerates the maximum-input-length table over the
// three GPU types (the paper's Table 2 collapses the two H100 variants) on
// the cell executor: each engine×GPU MIL binary search is a pure,
// independent cell.
func Table2Parallel(parallel int) ([]Table2Row, CellStats, error) {
	scenarios := []string{"L4", "A100", "H100"}
	engines := []EngineKind{PagedAttention, ChunkedPrefill, PipelineParallel, TensorParallel, PrefillOnly}
	type cell struct {
		kind   EngineKind
		scName string
	}
	var cells []cell
	for _, kind := range engines {
		for _, name := range scenarios {
			cells = append(cells, cell{kind, name})
		}
	}
	return runCells(parallel, len(cells), func(i int) (Table2Row, error) {
		c := cells[i]
		sc, err := ScenarioByName(c.scName)
		if err != nil {
			return Table2Row{}, err
		}
		mil, err := milFor(c.kind, sc)
		if err != nil {
			return Table2Row{}, fmt.Errorf("table2 %v/%s: %w", c.kind, c.scName, err)
		}
		return Table2Row{
			Engine:   c.kind,
			Scenario: c.scName,
			MIL:      mil,
			WL1OK:    mil >= wl1MaxLen,
			WL2OK:    mil >= wl2MaxLen,
		}, nil
	})
}

// Table3Row is one hardware/model pairing (paper Table 3).
type Table3Row struct {
	Scenario     string
	GPUName      string
	GPUCount     int
	MemoryGiB    float64
	Interconnect string
	ModelName    string
	WeightGiB    float64
}

// Table3 regenerates the hardware/model catalog.
func Table3() []Table3Row {
	out := make([]Table3Row, 0, 4)
	for _, sc := range Scenarios() {
		out = append(out, Table3Row{
			Scenario:     sc.Name,
			GPUName:      sc.GPU.Name,
			GPUCount:     scenarioGPUs,
			MemoryGiB:    float64(sc.GPU.MemoryBytes) / (1 << 30),
			Interconnect: sc.GPU.Link.String(),
			ModelName:    sc.Model.Name,
			WeightGiB:    float64(sc.Model.WeightBytes()) / (1 << 30),
		})
	}
	return out
}

// modelForFigure10 is the Figure-10 ablation model (Qwen-2.5-32B FP8).
func modelForFigure10() *model.Config { return model.Qwen25_32BFP8() }
