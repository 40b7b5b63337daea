package experiments

import (
	"math"

	"repro/internal/fleet"
	"repro/internal/router"
	"repro/internal/workload"
)

// RoutingSweepRow is one (policy, dataset) cell of the routing comparison.
type RoutingSweepRow struct {
	Policy        string  `json:"policy"`
	Dataset       string  `json:"dataset"`
	QPS           float64 `json:"qps"`
	MeanJCT       float64 `json:"mean_jct_seconds"`
	P99JCT        float64 `json:"p99_jct_seconds"`
	ThroughputRPS float64 `json:"throughput_rps"`
	CacheHitRate  float64 `json:"cache_hit_rate"`
	BalanceRatio  float64 `json:"balance_ratio"`
	Completed     int     `json:"completed"`
	Rejected      int     `json:"rejected"`
}

// RoutingDatasets builds the sweep's two arrival patterns: the Zipf-skewed
// user-popularity scenario (where routing policies differentiate) and the
// paper's uniform post-recommendation workload. small scales both down for
// tests and smoke benches.
func RoutingDatasets(seed int64, small bool) []*workload.Dataset {
	if small {
		return []*workload.Dataset{
			workload.Skewed(workload.SkewedConfig{
				Users: 24, Requests: 96, ProfileMean: 3000, ProfileStd: 800,
				ProfileMin: 1500, ProfileMax: 5000, Seed: seed,
			}),
			workload.PostRecommendation(workload.PostRecommendationConfig{
				Users: 8, PostsPerUser: 12, Seed: seed,
			}),
		}
	}
	return []*workload.Dataset{
		workload.Skewed(workload.SkewedConfig{Seed: seed}),
		workload.PostRecommendation(workload.PostRecommendationConfig{Seed: seed}),
	}
}

// RoutingSweepParallel compares three routing policies (the paper's
// fixed-instance user hash, least-loaded, and power-of-two-choices
// between the prefix-affinity home and the least-loaded instance) on
// skewed and uniform arrivals: four PrefillOnly instances on the L4
// scenario, offered load near the cluster's aggregate saturation so
// queues form and routing decisions matter. Cells fan across parallel
// workers and run on shards kernel workers; rows are byte-identical at
// any count of either.
func RoutingSweepParallel(seed int64, small bool, parallel, shards int) ([]RoutingSweepRow, CellStats, error) {
	return routingSweep(seed, small).run(parallel, shards)
}

// RoutingAffinityCell is the routing sweep's affinity cell on its
// Zipf-skewed dataset, for an instrumented run beside the sweep: the
// fleet spec, the base dataset (clone it for each run) and the arrivals.
func RoutingAffinityCell(seed int64, small bool) (fleet.Spec, *workload.Dataset, Arrivals, error) {
	return routingSweep(seed, small).cell(router.AffinityLoad{}.Name(), 0)
}

// routingSweep is the routing comparison's datasets, cells and rows.
func routingSweep(seed int64, small bool) sweep[RoutingSweepRow] {
	const instances = 4
	return sweep[RoutingSweepRow]{
		name:     "routing",
		datasets: RoutingDatasets(seed, small),
		cells: func(sat []float64) []cell {
			var cells []cell
			for di, x := range sat {
				// SaturationQPS measures the default two-instance cluster;
				// scale to this sweep's instance count at ~90% utilization.
				arr := Arrivals{QPS: x * instances / scenarioGPUs * 0.9, Seed: seed}
				for _, pol := range []router.Policy{router.UserHash{}, router.LeastLoaded{}, router.AffinityLoad{}} {
					cells = append(cells, cell{name: pol.Name(), data: di, arrivals: arr,
						spec: fleet.Spec{Instances: instances, Router: &router.Config{Policy: pol}}})
				}
			}
			return cells
		},
		row: func(c cell, ds *workload.Dataset, r *FleetResult) RoutingSweepRow {
			lat := latencySummary(r.Records)
			return RoutingSweepRow{
				Policy:        c.name,
				Dataset:       ds.Name,
				QPS:           c.arrivals.QPS,
				MeanJCT:       lat.Mean,
				P99JCT:        lat.P99,
				ThroughputRPS: throughput(r.Records),
				CacheHitRate:  r.Fleet.CacheHitRate(),
				BalanceRatio:  balanceRatio(r.Fleet.Router().Loads()),
				Completed:     len(r.Records),
				Rejected:      r.Fleet.Rejected(),
			}
		},
	}
}

// balanceRatio is max/min per-instance routed tokens (+Inf when an
// instance received nothing): the load-balance figure of merit.
func balanceRatio(loads []router.Load) float64 {
	minTok, maxTok := int64(math.MaxInt64), int64(0)
	for _, l := range loads {
		minTok = min(minTok, l.RoutedTokens)
		maxTok = max(maxTok, l.RoutedTokens)
	}
	if minTok > 0 {
		return float64(maxTok) / float64(minTok)
	}
	return math.Inf(1)
}
