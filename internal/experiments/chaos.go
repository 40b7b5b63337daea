package experiments

import (
	"repro/internal/autoscale"
	"repro/internal/chaos"
	"repro/internal/fleet"
	"repro/internal/metrics"
	"repro/internal/router"
	"repro/internal/workload"
)

// ChaosRunConfig describes one open-loop run of an elastic pool under
// deterministic fault injection, at the chaosBacklogSeconds admission
// bound.
type ChaosRunConfig struct {
	Scenario Scenario
	// Dataset provides the requests; arrival times are overwritten by the
	// open-loop process.
	Dataset *workload.Dataset
	// QPS is the constant offered load. Chaos runs use a steady rate so
	// JCT and shed degradation are attributable to the faults, not to a
	// shaped arrival process.
	QPS  float64
	Seed int64
	// Chaos parameterizes the injector; a zero config is the failure-free
	// baseline (the injector is a nil no-op and the run is bit-identical
	// to one without the chaos package wired).
	Chaos chaos.Config
	// MinInstances and MaxInstances bound the elastic pool (defaults 2
	// and 4). The ceiling headroom is what lets the autoscaler replace
	// crashed capacity.
	MinInstances, MaxInstances int
}

// chaosBacklogSeconds is every chaos run's admission bound, applied to
// first admissions and orphan re-admissions alike.
const chaosBacklogSeconds = 30

// ChaosRunResult aggregates one faulted run.
type ChaosRunResult struct {
	Mode    string
	Dataset string
	// Completed + Rejected + OrphanShed covers every request exactly
	// once: Rejected counts first-admission sheds, OrphanShed counts
	// fault-orphaned requests dropped during recovery (retry budget
	// exhausted or re-admission rejected).
	Completed, Rejected, OrphanShed int
	// ShedRate is (Rejected + OrphanShed) / offered.
	ShedRate float64
	// Latency summarizes completed requests only; an orphaned request
	// that recovers keeps its original arrival, so its JCT includes the
	// time lost to the fault.
	Latency       metrics.Summary
	ThroughputRPS float64
	// GPUSeconds is the provisioning cost (replacement cold starts
	// included; crashed capacity stops accruing at the kill).
	GPUSeconds      float64
	MakespanSeconds float64
	// Faults is the injector's activity (zero for the baseline).
	Faults chaos.Stats
	// Controller activity: replacement cold starts show up as ScaleUps.
	ScaleUps, Revives, Lost int
	PeakInstances           int
}

// ChaosRun executes one open-loop run to completion under fault
// injection. The pool is always elastic: recovery — the autoscaler
// restoring routable capacity after a kill — is part of what chaos runs
// measure.
func ChaosRun(rc ChaosRunConfig) (*ChaosRunResult, error) {
	if rc.MinInstances <= 0 {
		rc.MinInstances = 2
	}
	if rc.MaxInstances <= 0 {
		rc.MaxInstances = 4
	}
	spec := chaosSpec(rc.MinInstances, rc.MaxInstances, rc.Chaos)
	spec.Model, spec.GPU = rc.Scenario.Model, rc.Scenario.GPU
	r, err := FleetRun(spec, rc.Dataset, steady(rc.QPS, rc.Seed))
	if err != nil {
		return nil, err
	}
	return chaosResult(rc.Dataset, r), nil
}

// chaosSpec is the fleet of every chaos run: an elastic pool behind the
// affinity router at the chaos admission bound, under the given faults.
func chaosSpec(minInst, maxInst int, faults chaos.Config) fleet.Spec {
	return fleet.Spec{
		Router:    &router.Config{Policy: router.AffinityLoad{}, MaxBacklogSeconds: chaosBacklogSeconds},
		Autoscale: &autoscale.Config{MinInstances: minInst, MaxInstances: maxInst},
		Chaos:     faults,
	}
}

// steady is the constant-rate open-loop arrival process of chaos runs.
func steady(qps float64, seed int64) Arrivals {
	return Arrivals{Rate: func(float64) float64 { return qps }, MaxRate: qps, Seed: seed}
}

// chaosResult projects a faulted run onto its result.
func chaosResult(ds *workload.Dataset, r *FleetResult) *ChaosRunResult {
	f := r.Fleet
	st := f.Autoscaler().Stats()
	return &ChaosRunResult{
		Mode:            "chaos",
		Dataset:         ds.Name,
		Completed:       len(r.Records),
		Rejected:        f.Rejected(),
		OrphanShed:      f.OrphanShed(),
		ShedRate:        float64(f.Rejected()+f.OrphanShed()) / float64(len(ds.Requests)),
		Latency:         latencySummary(r.Records),
		ThroughputRPS:   throughput(r.Records),
		MakespanSeconds: r.Makespan,
		GPUSeconds:      f.GPUSeconds(r.Makespan),
		Faults:          f.Chaos().Stats(),
		ScaleUps:        st.ScaleUps,
		Revives:         st.Revives,
		Lost:            st.Lost,
		PeakInstances:   st.PeakInstances,
	}
}

// ChaosSweepRow is one fault mode of the chaos comparison.
type ChaosSweepRow struct {
	Mode      string  `json:"mode"`
	Dataset   string  `json:"dataset"`
	MeanJCT   float64 `json:"mean_jct_seconds"`
	P50JCT    float64 `json:"p50_jct_seconds"`
	P99JCT    float64 `json:"p99_jct_seconds"`
	ShedRate  float64 `json:"shed_rate"`
	Completed int     `json:"completed"`
	Rejected  int     `json:"rejected"`
	// Fault activity: Orphaned == OrphansRerouted + OrphansShed.
	Faults          uint64 `json:"faults"`
	Orphaned        uint64 `json:"orphaned"`
	OrphansRerouted uint64 `json:"orphans_rerouted"`
	OrphansShed     uint64 `json:"orphans_shed"`
	// Recovery: how long the autoscaler took to restore the routable
	// pool to its pre-fault size after each kill.
	Recoveries          uint64  `json:"recoveries"`
	MeanRecoverySeconds float64 `json:"mean_recovery_seconds"`
	MaxRecoverySeconds  float64 `json:"max_recovery_seconds"`
	ScaleUps            int     `json:"scale_ups"`
	Revives             int     `json:"revives"`
	GPUSeconds          float64 `json:"gpu_seconds"`
	// Degradation vs the failure-free baseline row (0 for the baseline
	// itself): relative increase in p99 JCT and absolute shed-rate delta.
	P99DegradationVsBaseline     float64 `json:"p99_degradation_vs_baseline"`
	ShedRateDeltaVsBaseline      float64 `json:"shed_rate_delta_vs_baseline"`
	MeanJCTDegradationVsBaseline float64 `json:"mean_jct_degradation_vs_baseline"`
}

// ChaosSweepParallel measures fault degradation and recovery: the same
// steady open-loop workload on the same elastic pool, failure-free and
// then under each fault kind (instance crashes, slow-node stragglers,
// spot preemptions). Fault rates are sized relative to the run span so
// every mode sees a handful of faults regardless of dataset size. The
// degradation columns are derived after all cells return. Cells fan
// across parallel workers and run on shards kernel workers (faults are
// coordinator events); rows are byte-identical at any count of either.
func ChaosSweepParallel(seed int64, small bool, parallel, shards int) ([]ChaosSweepRow, CellStats, error) {
	const minInst, maxInst = 2, 4
	ds := skewedDataset(seed, small)
	return sweep[ChaosSweepRow]{
		name:     "chaos",
		datasets: []*workload.Dataset{ds},
		cells: func(sat []float64) []cell {
			// Load the floor fleet at ~70% of saturation: enough headroom
			// that the failure-free baseline sheds (almost) nothing, so any
			// degradation in the fault rows is attributable to the faults.
			perInst := sat[0] / 2
			qps := 0.7 * perInst * minInst
			// Approximate run span: n requests at qps. Fault rates are sized
			// so a run sees ~3 kills / ~4 straggler episodes — enough to
			// measure recovery without the run being one long outage.
			span := float64(len(ds.Requests)) / qps
			modes := []struct {
				name string
				cfg  chaos.Config
			}{
				{name: "failure-free"},
				{name: "crash", cfg: chaos.Config{Seed: seed, CrashRate: 6 / span}},
				{name: "straggler", cfg: chaos.Config{Seed: seed, StragglerRate: 4 / span,
					SlowFactor: 4, StragglerSeconds: span / 8}},
				{name: "preempt", cfg: chaos.Config{Seed: seed, PreemptRate: 4 / span,
					NoticeSeconds: span / 32}},
			}
			cells := make([]cell, len(modes))
			for i, m := range modes {
				cells[i] = cell{name: m.name, spec: chaosSpec(minInst, maxInst, m.cfg), arrivals: steady(qps, seed)}
			}
			return cells
		},
		row: func(c cell, ds *workload.Dataset, r *FleetResult) ChaosSweepRow {
			res := chaosResult(ds, r)
			return ChaosSweepRow{
				Mode:                c.name,
				Dataset:             res.Dataset,
				MeanJCT:             res.Latency.Mean,
				P50JCT:              res.Latency.P50,
				P99JCT:              res.Latency.P99,
				ShedRate:            res.ShedRate,
				Completed:           res.Completed,
				Rejected:            res.Rejected + res.OrphanShed,
				Faults:              res.Faults.Faults(),
				Orphaned:            res.Faults.Orphaned,
				OrphansRerouted:     res.Faults.Rerouted,
				OrphansShed:         res.Faults.Shed,
				Recoveries:          res.Faults.Recoveries,
				MeanRecoverySeconds: res.Faults.MeanRecoverySeconds(),
				MaxRecoverySeconds:  res.Faults.MaxRecoverySeconds,
				ScaleUps:            res.ScaleUps,
				Revives:             res.Revives,
				GPUSeconds:          res.GPUSeconds,
			}
		},
		derive: func(rows []ChaosSweepRow) {
			base := rows[0]
			for i := 1; i < len(rows); i++ {
				if base.P99JCT > 0 {
					rows[i].P99DegradationVsBaseline = rows[i].P99JCT/base.P99JCT - 1
				}
				if base.MeanJCT > 0 {
					rows[i].MeanJCTDegradationVsBaseline = rows[i].MeanJCT/base.MeanJCT - 1
				}
				rows[i].ShedRateDeltaVsBaseline = rows[i].ShedRate - base.ShedRate
			}
		},
	}.run(parallel, shards)
}
