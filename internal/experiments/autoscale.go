package experiments

import (
	"fmt"

	"repro/internal/autoscale"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/fleet"
	"repro/internal/metrics"
	"repro/internal/router"
	"repro/internal/workload"
)

// AutoscaleRunConfig describes one open-loop run against either a fixed
// fleet or an elastic (autoscaled) pool.
type AutoscaleRunConfig struct {
	Scenario Scenario
	// Dataset provides the requests; arrival times are overwritten by the
	// open-loop process.
	Dataset *workload.Dataset
	// Rate is the time-varying offered load; MaxRate bounds it (thinning
	// envelope).
	Rate    workload.RateFn
	MaxRate float64
	Seed    int64
	// FixedInstances > 0 provisions a fixed fleet of that size and
	// disables the controller. Otherwise the pool starts at MinInstances
	// and scales up to MaxInstances.
	FixedInstances int
	// MinInstances and MaxInstances bound the elastic pool (defaults 1
	// and 4).
	MinInstances, MaxInstances int
	// MaxBacklogSeconds is the admission bound (default 30): requests
	// whose projected wait exceeds it are shed, which is the SLO signal
	// the fixed-vs-elastic comparison holds constant.
	MaxBacklogSeconds float64
	// Controller overrides the autoscaler's tuning; Min/Max/Model/GPU and
	// the cold start are filled in from this config's fields.
	Controller autoscale.Config
	// Lambda overrides PrefillOnly's fairness parameter (0 = default).
	Lambda float64
	// Shards selects the event kernel: <= 1 serial, >= 2 the sharded
	// kernel with that many workers. Results are identical either way.
	Shards int
}

func (rc *AutoscaleRunConfig) defaults() error {
	if rc.Dataset == nil {
		return fmt.Errorf("experiments: AutoscaleRunConfig.Dataset is required")
	}
	if rc.Rate == nil {
		return fmt.Errorf("experiments: AutoscaleRunConfig.Rate is required")
	}
	if rc.MinInstances <= 0 {
		rc.MinInstances = 1
	}
	if rc.MaxInstances <= 0 {
		rc.MaxInstances = 4
	}
	if rc.MaxBacklogSeconds == 0 {
		rc.MaxBacklogSeconds = 30
	}
	return nil
}

// AutoscaleRunResult aggregates one open-loop run.
type AutoscaleRunResult struct {
	// Mode is "fixed-N" or "autoscale-MIN:MAX".
	Mode      string
	Dataset   string
	Completed int
	Rejected  int
	// ShedRate is rejected / offered.
	ShedRate float64
	// Latency summarizes completed requests only.
	Latency       metrics.Summary
	ThroughputRPS float64
	// GPUSeconds is the provisioning cost: GPUs owned integrated over the
	// run (cold starts and draining included). The figure of merit the
	// elastic pool minimizes at held shed rate.
	GPUSeconds float64
	// MakespanSeconds is the simulated end time (last completion).
	MakespanSeconds float64
	// Pool trajectory and controller activity (zero for fixed fleets).
	PeakInstances, TroughInstances int
	ScaleUps, ScaleDowns           int
	ColdStartSeconds               float64
}

// AutoscaleRun executes one open-loop run to completion.
func AutoscaleRun(rc AutoscaleRunConfig) (*AutoscaleRunResult, error) {
	if err := rc.defaults(); err != nil {
		return nil, err
	}
	var recs []engine.Record
	spec := fleet.Spec{
		Model:         rc.Scenario.Model,
		GPU:           rc.Scenario.GPU,
		ProfileMaxLen: profileLen(rc.Dataset),
		Core:          core.Options{Lambda: rc.Lambda},
		Instances:     rc.FixedInstances,
		Router:        &router.Config{Policy: router.AffinityLoad{}, MaxBacklogSeconds: rc.MaxBacklogSeconds},
		Shards:        rc.Shards,
		OnComplete:    func(r engine.Record) { recs = append(recs, r) },
	}
	mode := fmt.Sprintf("fixed-%d", rc.FixedInstances)
	if rc.FixedInstances <= 0 {
		ccfg := rc.Controller
		ccfg.MinInstances = rc.MinInstances
		ccfg.MaxInstances = rc.MaxInstances
		ccfg.Model = rc.Scenario.Model
		ccfg.GPU = rc.Scenario.GPU
		spec.Autoscale = &ccfg
		mode = fmt.Sprintf("autoscale-%d:%d", rc.MinInstances, rc.MaxInstances)
	}
	f, err := fleet.New(spec)
	if err != nil {
		return nil, err
	}

	arrivals, err := workload.AssignOpenLoopArrivals(rc.Dataset, rc.Rate, rc.MaxRate, rc.Seed)
	if err != nil {
		return nil, err
	}
	for _, a := range arrivals {
		f.SubmitAt(a.Time, a.Req)
	}
	end := f.Run()
	if err := f.Check(len(rc.Dataset.Requests)); err != nil {
		return nil, err
	}

	res := &AutoscaleRunResult{
		Mode:            mode,
		Dataset:         rc.Dataset.Name,
		Completed:       len(recs),
		Rejected:        f.Rejected(),
		ShedRate:        float64(f.Rejected()) / float64(len(rc.Dataset.Requests)),
		GPUSeconds:      f.GPUSeconds(end),
		MakespanSeconds: end,
		PeakInstances:   rc.FixedInstances,
		TroughInstances: rc.FixedInstances,
	}
	_, res.Latency, res.ThroughputRPS = latencyStats(recs)
	if ctl := f.Autoscaler(); ctl != nil {
		st := ctl.Stats()
		res.PeakInstances = st.PeakInstances
		res.TroughInstances = st.MinInstances
		res.ScaleUps = st.ScaleUps
		res.ScaleDowns = st.ScaleDowns
		res.ColdStartSeconds = st.ColdStartSeconds
	}
	return res, nil
}

// AutoscaleSweepRow is one mode of the fixed-vs-elastic comparison.
type AutoscaleSweepRow struct {
	Mode       string  `json:"mode"`
	Dataset    string  `json:"dataset"`
	MeanJCT    float64 `json:"mean_jct_seconds"`
	P99JCT     float64 `json:"p99_jct_seconds"`
	ShedRate   float64 `json:"shed_rate"`
	GPUSeconds float64 `json:"gpu_seconds"`
	// GPUSavingsVsPeak is 1 - GPUSeconds/GPUSeconds(fixed peak fleet).
	GPUSavingsVsPeak float64 `json:"gpu_savings_vs_peak"`
	Completed        int     `json:"completed"`
	Rejected         int     `json:"rejected"`
	PeakInstances    int     `json:"peak_instances"`
	TroughInstances  int     `json:"trough_instances"`
	ScaleUps         int     `json:"scale_ups"`
	ScaleDowns       int     `json:"scale_downs"`
	ColdStartSeconds float64 `json:"cold_start_seconds"`
}

// AutoscaleSweep compares provisioning strategies on the square-wave
// burst scenario: a fixed trough-sized fleet (sheds the peak), a fixed
// peak-sized fleet (over-provisions the trough), and the elastic pool,
// all at the same admission bound. The elastic pool should match the
// peak fleet's shed rate at materially fewer GPU-seconds. Serial
// convenience wrapper around AutoscaleSweepParallel.
func AutoscaleSweep(seed int64, small bool) ([]AutoscaleSweepRow, error) {
	rows, _, err := AutoscaleSweepParallel(seed, small, 1, 1)
	return rows, err
}

// AutoscaleSweepParallel is AutoscaleSweep fanned across the cell
// executor: one saturation cell, then the three provisioning modes as
// independent cells (each generates its own dataset; arrivals are
// restamped per run). The savings-vs-peak column is derived after all
// cells return, so rows are byte-identical at any parallelism — and at any
// shard count (shards picks each cell's event kernel).
func AutoscaleSweepParallel(seed int64, small bool, parallel, shards int) ([]AutoscaleSweepRow, CellStats, error) {
	sc, err := ScenarioByName("L4")
	if err != nil {
		return nil, CellStats{}, err
	}
	// Scenario constants follow two sizing rules. The floor must absorb a
	// burst front for roughly one cold start, and the admission bound must
	// be deep enough that the front (a batch of cache-cold users landing
	// inside one control tick) fits in the floor's backlog headroom while
	// a sustained 3x overload still overruns the trough fleet. The full
	// workload's 8k-token cold profiles roughly triple both the front and
	// the slope, so its floor and bound scale up with it.
	minInst, bound := 1, 8.0
	if !small {
		minInst, bound = 2, 12.0
	}
	const maxInst = 4
	mkDataset := func() *workload.Dataset {
		if small {
			return workload.Skewed(workload.SkewedConfig{
				Users: 24, Requests: 144, ProfileMean: 3000, ProfileStd: 800,
				ProfileMin: 1500, ProfileMax: 5000, Seed: seed,
			})
		}
		return workload.Skewed(workload.SkewedConfig{Seed: seed})
	}
	// Per-instance saturation: SaturationQPS measures the default
	// two-instance cluster. One cell — the runner still times it so the
	// sweep's serial-equivalent accounting covers the whole sweep.
	satDS := mkDataset()
	sat, satStats, err := runCells(1, 1, func(int) (float64, error) {
		return SaturationQPS(PrefillOnly, sc, satDS)
	})
	if err != nil {
		return nil, satStats, fmt.Errorf("autoscale saturation: %w", err)
	}
	x := sat[0]
	perInst := x / 2
	// Square wave: trough keeps the floor ~70% busy, peak needs ~80% of
	// the full ceiling. Period sized so the run spans ~3 cycles.
	// Trough load keeps roughly one instance busy; peak needs ~80% of the
	// full ceiling — a >3x swing, which is what a static fleet cannot
	// serve efficiently from either end.
	base := 0.7 * perInst
	peak := 0.8 * perInst * float64(maxInst)
	const duty = 0.4
	avgRate := duty*peak + (1-duty)*base
	n := len(satDS.Requests)
	period := float64(n) / avgRate / 3
	rate := workload.SquareWaveRate(base, peak, period, duty)

	runs := []AutoscaleRunConfig{
		{Scenario: sc, Rate: rate, MaxRate: peak, Seed: seed, FixedInstances: minInst, MaxBacklogSeconds: bound},
		{Scenario: sc, Rate: rate, MaxRate: peak, Seed: seed, FixedInstances: maxInst, MaxBacklogSeconds: bound},
		{Scenario: sc, Rate: rate, MaxRate: peak, Seed: seed, MinInstances: minInst, MaxInstances: maxInst, MaxBacklogSeconds: bound},
	}
	rows, runStats, err := runCells(parallel, len(runs), func(i int) (AutoscaleSweepRow, error) {
		rc := runs[i]
		rc.Dataset = mkDataset() // fresh dataset per cell: arrivals are restamped
		rc.Shards = shards
		res, err := AutoscaleRun(rc)
		if err != nil {
			return AutoscaleSweepRow{}, fmt.Errorf("autoscale %s: %w", rc.Dataset.Name, err)
		}
		return AutoscaleSweepRow{
			Mode:             res.Mode,
			Dataset:          res.Dataset,
			MeanJCT:          res.Latency.Mean,
			P99JCT:           res.Latency.P99,
			ShedRate:         res.ShedRate,
			GPUSeconds:       res.GPUSeconds,
			Completed:        res.Completed,
			Rejected:         res.Rejected,
			PeakInstances:    res.PeakInstances,
			TroughInstances:  res.TroughInstances,
			ScaleUps:         res.ScaleUps,
			ScaleDowns:       res.ScaleDowns,
			ColdStartSeconds: res.ColdStartSeconds,
		}, nil
	})
	if err != nil {
		return nil, satStats.Merge(runStats), err
	}
	var peakGPUSeconds float64
	for i := range rows {
		if runs[i].FixedInstances == maxInst {
			peakGPUSeconds = rows[i].GPUSeconds
		}
	}
	for i := range rows {
		if peakGPUSeconds > 0 {
			rows[i].GPUSavingsVsPeak = 1 - rows[i].GPUSeconds/peakGPUSeconds
		}
	}
	return rows, satStats.Merge(runStats), nil
}
