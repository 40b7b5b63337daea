package experiments

import (
	"fmt"

	"repro/internal/autoscale"
	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/fleet"
	"repro/internal/metrics"
	"repro/internal/router"
	"repro/internal/workload"
)

// ChaosRunConfig describes one open-loop run of an elastic pool under
// deterministic fault injection.
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
	// MaxBacklogSeconds is the admission bound (default 30), applied to
	// first admissions and orphan re-admissions alike.
	MaxBacklogSeconds float64
	// Lambda overrides PrefillOnly's fairness parameter (0 = default).
	Lambda float64
	// Shards selects the event kernel: <= 1 serial, >= 2 the sharded
	// kernel with that many workers. Results are identical either way:
	// faults are coordinator events, executed at shard barriers.
	Shards int
}

func (rc *ChaosRunConfig) defaults() error {
	if rc.Dataset == nil {
		return fmt.Errorf("experiments: ChaosRunConfig.Dataset is required")
	}
	if rc.QPS <= 0 {
		return fmt.Errorf("experiments: ChaosRunConfig.QPS must be positive")
	}
	if rc.MinInstances <= 0 {
		rc.MinInstances = 2
	}
	if rc.MaxInstances <= 0 {
		rc.MaxInstances = 4
	}
	if rc.MaxBacklogSeconds == 0 {
		rc.MaxBacklogSeconds = 30
	}
	return nil
}

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
	if err := rc.defaults(); err != nil {
		return nil, err
	}
	qps := rc.QPS
	arrivals, err := workload.AssignOpenLoopArrivals(rc.Dataset,
		func(float64) float64 { return qps }, qps, rc.Seed)
	if err != nil {
		return nil, err
	}
	// Bound fault injection to the arrival window so the run drains:
	// faults land while traffic flows, then the streams stop for good.
	ccfg := rc.Chaos
	if ccfg.HorizonSeconds <= 0 && len(arrivals) > 0 {
		ccfg.HorizonSeconds = arrivals[len(arrivals)-1].Time
	}
	var recs []engine.Record
	f, err := fleet.New(fleet.Spec{
		Model:         rc.Scenario.Model,
		GPU:           rc.Scenario.GPU,
		ProfileMaxLen: profileLen(rc.Dataset),
		Core:          core.Options{Lambda: rc.Lambda},
		Router:        &router.Config{Policy: router.AffinityLoad{}, MaxBacklogSeconds: rc.MaxBacklogSeconds},
		Autoscale:     &autoscale.Config{MinInstances: rc.MinInstances, MaxInstances: rc.MaxInstances},
		Chaos:         ccfg,
		Shards:        rc.Shards,
		OnComplete:    func(r engine.Record) { recs = append(recs, r) },
	})
	if err != nil {
		return nil, err
	}
	for _, a := range arrivals {
		f.SubmitAt(a.Time, a.Req)
	}
	end := f.Run()
	offered := len(rc.Dataset.Requests)
	if err := f.Check(offered); err != nil {
		return nil, err
	}

	st := f.Autoscaler().Stats()
	res := &ChaosRunResult{
		Mode:            "chaos",
		Dataset:         rc.Dataset.Name,
		Completed:       len(recs),
		Rejected:        f.Rejected(),
		OrphanShed:      f.OrphanShed(),
		ShedRate:        float64(f.Rejected()+f.OrphanShed()) / float64(offered),
		MakespanSeconds: end,
		GPUSeconds:      f.GPUSeconds(end),
		Faults:          f.Chaos().Stats(),
		ScaleUps:        st.ScaleUps,
		Revives:         st.Revives,
		Lost:            st.Lost,
		PeakInstances:   st.PeakInstances,
	}
	_, res.Latency, res.ThroughputRPS = latencyStats(recs)
	return res, nil
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

// ChaosSweep is the serial convenience wrapper around ChaosSweepParallel.
func ChaosSweep(seed int64, small bool) ([]ChaosSweepRow, error) {
	rows, _, err := ChaosSweepParallel(seed, small, 1, 1)
	return rows, err
}

// ChaosSweepParallel measures fault degradation and recovery: the same
// steady open-loop workload on the same elastic pool, failure-free and
// then under each fault kind (instance crashes, slow-node stragglers,
// spot preemptions). Fault rates are sized relative to the run span so
// every mode sees a handful of faults regardless of dataset size. The
// degradation columns are derived after all cells return, so rows are
// byte-identical at any parallelism — and at any shard count (faults are
// coordinator events in the sharded kernel).
func ChaosSweepParallel(seed int64, small bool, parallel, shards int) ([]ChaosSweepRow, CellStats, error) {
	sc, err := ScenarioByName("L4")
	if err != nil {
		return nil, CellStats{}, err
	}
	mkDataset := func() *workload.Dataset {
		if small {
			return workload.Skewed(workload.SkewedConfig{
				Users: 24, Requests: 144, ProfileMean: 3000, ProfileStd: 800,
				ProfileMin: 1500, ProfileMax: 5000, Seed: seed,
			})
		}
		return workload.Skewed(workload.SkewedConfig{Seed: seed})
	}
	// Load the floor fleet at ~60% of saturation: enough headroom that the
	// failure-free baseline sheds (almost) nothing, so any degradation in
	// the fault rows is attributable to the faults.
	satDS := mkDataset()
	sat, satStats, err := runCells(1, 1, func(int) (float64, error) {
		return SaturationQPS(PrefillOnly, sc, satDS)
	})
	if err != nil {
		return nil, satStats, fmt.Errorf("chaos saturation: %w", err)
	}
	const minInst, maxInst = 2, 4
	perInst := sat[0] / 2
	qps := 0.7 * perInst * minInst
	// Approximate run span: n requests at qps. Fault rates are sized so a
	// run sees ~3 kills / ~4 straggler episodes — enough to measure
	// recovery without the run being one long outage.
	span := float64(len(satDS.Requests)) / qps
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
	rows, runStats, err := runCells(parallel, len(modes), func(i int) (ChaosSweepRow, error) {
		res, err := ChaosRun(ChaosRunConfig{
			Scenario: sc, Dataset: mkDataset(), QPS: qps, Seed: seed,
			Chaos: modes[i].cfg, MinInstances: minInst, MaxInstances: maxInst,
			Shards: shards,
		})
		if err != nil {
			return ChaosSweepRow{}, fmt.Errorf("chaos %s: %w", modes[i].name, err)
		}
		return ChaosSweepRow{
			Mode:                modes[i].name,
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
		}, nil
	})
	if err != nil {
		return nil, satStats.Merge(runStats), err
	}
	base := rows[0]
	for i := range rows {
		if i == 0 {
			continue
		}
		if base.P99JCT > 0 {
			rows[i].P99DegradationVsBaseline = rows[i].P99JCT/base.P99JCT - 1
		}
		if base.MeanJCT > 0 {
			rows[i].MeanJCTDegradationVsBaseline = rows[i].MeanJCT/base.MeanJCT - 1
		}
		rows[i].ShedRateDeltaVsBaseline = rows[i].ShedRate - base.ShedRate
	}
	return rows, satStats.Merge(runStats), nil
}
