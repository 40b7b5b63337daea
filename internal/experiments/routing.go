package experiments

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/fleet"
	"repro/internal/metrics"
	"repro/internal/router"
	"repro/internal/timeseries"
	"repro/internal/trace"
	"repro/internal/workload"
)

// RoutingPolicyKind enumerates the routing policies the sweep compares.
type RoutingPolicyKind int

const (
	// UserHashPolicy is the paper's fixed-instance baseline.
	UserHashPolicy RoutingPolicyKind = iota
	// LeastLoadedPolicy routes to the smallest estimated backlog.
	LeastLoadedPolicy
	// AffinityLoadPolicy is power-of-two-choices between the prefix-
	// affinity home and the least-loaded instance.
	AffinityLoadPolicy
)

// String returns the policy's display name.
func (k RoutingPolicyKind) String() string { return k.Policy().Name() }

// Policy constructs the router policy.
func (k RoutingPolicyKind) Policy() router.Policy {
	switch k {
	case LeastLoadedPolicy:
		return router.LeastLoaded{}
	case AffinityLoadPolicy:
		return router.AffinityLoad{}
	default:
		return router.UserHash{}
	}
}

// AllRoutingPolicies returns the compared policies in sweep order.
func AllRoutingPolicies() []RoutingPolicyKind {
	return []RoutingPolicyKind{UserHashPolicy, LeastLoadedPolicy, AffinityLoadPolicy}
}

// RoutingRunConfig describes one routed serving run.
type RoutingRunConfig struct {
	Policy   RoutingPolicyKind
	Scenario Scenario
	// Dataset provides the requests; arrival times are overwritten.
	Dataset *workload.Dataset
	// QPS is the offered request rate; <= 0 means closed-loop (all at t=0).
	QPS  float64
	Seed int64
	// Instances is the PrefillOnly instance count (default 4, one GPU each).
	Instances int
	// MaxBacklogSeconds enables admission control when positive.
	MaxBacklogSeconds float64
	// Lambda overrides PrefillOnly's fairness parameter (0 = default).
	Lambda float64
	// Tracer, when non-nil, records the run's request lifecycle and fleet
	// gauges into the flight recorder (export with WriteTrace). The sweep
	// paths leave it nil so their cells stay deterministic and lean.
	Tracer *trace.Recorder
	// Timeseries, when non-nil, collects the run's windowed series. The
	// fleet installs its gauge sampler and boundary ticker on the
	// collector; callers just construct it with the interval they want.
	Timeseries *timeseries.Collector
	// Shards selects the event kernel: <= 1 serial, >= 2 the sharded
	// kernel with that many workers. Results are identical either way.
	Shards int
}

// RoutingRunResult aggregates one routed run.
type RoutingRunResult struct {
	Policy    string
	Dataset   string
	QPS       float64
	Completed int
	Rejected  int
	// Latency summarizes completed requests only.
	Latency       metrics.Summary
	ThroughputRPS float64
	CacheHitRate  float64
	// RoutedTokens is the cumulative tokens each instance received.
	RoutedTokens []int64
	// BalanceRatio is max/min per-instance routed tokens (+Inf when an
	// instance received nothing) — the load-balance figure of merit.
	BalanceRatio float64
	// Admission is the policy's accept/reject tally.
	Admission metrics.AdmissionCount
}

// RoutingRun executes one routed serving run to completion.
func RoutingRun(rc RoutingRunConfig) (*RoutingRunResult, error) {
	if rc.Dataset == nil {
		return nil, fmt.Errorf("experiments: RoutingRunConfig.Dataset is required")
	}
	instances := rc.Instances
	if instances <= 0 {
		instances = 4
	}
	pol := rc.Policy.Policy()
	var recs []engine.Record
	f, err := fleet.New(fleet.Spec{
		Model:         rc.Scenario.Model,
		GPU:           rc.Scenario.GPU,
		ProfileMaxLen: profileLen(rc.Dataset),
		Core:          core.Options{Lambda: rc.Lambda},
		Instances:     instances,
		Router:        &router.Config{Policy: pol, MaxBacklogSeconds: rc.MaxBacklogSeconds},
		Shards:        rc.Shards,
		Tracer:        rc.Tracer,
		SampleSeconds: 0.5,
		Timeseries:    rc.Timeseries,
		OnComplete:    func(r engine.Record) { recs = append(recs, r) },
	})
	if err != nil {
		return nil, err
	}
	if err := scheduleArrivals(f, rc.Dataset, rc.QPS, rc.Seed); err != nil {
		return nil, err
	}
	f.Run()
	if err := f.Check(len(rc.Dataset.Requests)); err != nil {
		return nil, err
	}
	rt := f.Router()
	res := &RoutingRunResult{
		Policy:       pol.Name(),
		Dataset:      rc.Dataset.Name,
		QPS:          rc.QPS,
		Completed:    len(recs),
		Rejected:     f.Rejected(),
		CacheHitRate: f.CacheHitRate(),
		Admission:    rt.Admission().Policy(pol.Name()),
	}
	_, res.Latency, res.ThroughputRPS = latencyStats(recs)
	minTok, maxTok := int64(math.MaxInt64), int64(0)
	for _, l := range rt.Loads() {
		res.RoutedTokens = append(res.RoutedTokens, l.RoutedTokens)
		if l.RoutedTokens < minTok {
			minTok = l.RoutedTokens
		}
		if l.RoutedTokens > maxTok {
			maxTok = l.RoutedTokens
		}
	}
	if minTok > 0 {
		res.BalanceRatio = float64(maxTok) / float64(minTok)
	} else {
		res.BalanceRatio = math.Inf(1)
	}
	return res, nil
}

// TracedRoutingRun is RoutingRun with a fresh flight recorder attached
// (maxSpans <= 0 takes the default ring depth): one instrumented run whose
// full request lifecycle — submit, route/reject, queue, exec, pass stages —
// and fleet gauges land in the returned recorder, ready for WriteTrace.
func TracedRoutingRun(rc RoutingRunConfig, maxSpans int) (*RoutingRunResult, *trace.Recorder, error) {
	rc.Tracer = trace.New(maxSpans)
	res, err := RoutingRun(rc)
	return res, rc.Tracer, err
}

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

// RoutingSweep compares the three routing policies on skewed and uniform
// arrivals: PrefillOnly instances on the L4 scenario, offered load chosen
// near the cluster's aggregate saturation so queues form and routing
// decisions matter. Serial convenience wrapper around RoutingSweepParallel.
func RoutingSweep(seed int64, small bool) ([]RoutingSweepRow, error) {
	rows, _, err := RoutingSweepParallel(seed, small, 1, 1)
	return rows, err
}

// RoutingSweepParallel is RoutingSweep fanned across the cell executor:
// phase 1 measures each dataset's saturation throughput, phase 2 runs the
// (dataset, policy) grid. Every cell takes its own clone of the immutable
// base dataset, so rows are byte-identical at any parallelism — and at any
// shard count: shards picks each cell's event kernel (two orthogonal axes
// of parallelism: cells across experiment points, shards within one run).
func RoutingSweepParallel(seed int64, small bool, parallel, shards int) ([]RoutingSweepRow, CellStats, error) {
	sc, err := ScenarioByName("L4")
	if err != nil {
		return nil, CellStats{}, err
	}
	const instances = 4
	base := RoutingDatasets(seed, small)

	// Phase 1: per-dataset saturation. SaturationQPS measures the default
	// two-instance cluster; scale to this sweep's instance count at ~90%
	// utilization.
	qpsFor, satStats, err := runCells(parallel, len(base), func(i int) (float64, error) {
		x, err := SaturationQPS(PrefillOnly, sc, base[i].Clone())
		if err != nil {
			return 0, fmt.Errorf("routing saturation on %s: %w", base[i].Name, err)
		}
		return x * instances / 2 * 0.9, nil
	})
	if err != nil {
		return nil, satStats, err
	}

	// Phase 2: the (dataset, policy) grid in the serial loop's row order.
	pols := AllRoutingPolicies()
	type cell struct{ di, pi int }
	cells := make([]cell, 0, len(base)*len(pols))
	for di := range base {
		for pi := range pols {
			cells = append(cells, cell{di, pi})
		}
	}
	rows, runStats, err := runCells(parallel, len(cells), func(i int) (RoutingSweepRow, error) {
		c := cells[i]
		ds := base[c.di].Clone()
		res, err := RoutingRun(RoutingRunConfig{
			Policy: pols[c.pi], Scenario: sc, Dataset: ds,
			QPS: qpsFor[c.di], Seed: seed, Instances: instances,
			Shards: shards,
		})
		if err != nil {
			return RoutingSweepRow{}, fmt.Errorf("routing %v on %s: %w", pols[c.pi], ds.Name, err)
		}
		return RoutingSweepRow{
			Policy:        res.Policy,
			Dataset:       res.Dataset,
			QPS:           res.QPS,
			MeanJCT:       res.Latency.Mean,
			P99JCT:        res.Latency.P99,
			ThroughputRPS: res.ThroughputRPS,
			CacheHitRate:  res.CacheHitRate,
			BalanceRatio:  res.BalanceRatio,
			Completed:     res.Completed,
			Rejected:      res.Rejected,
		}, nil
	})
	return rows, satStats.Merge(runStats), err
}
