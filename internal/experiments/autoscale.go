package experiments

import (
	"fmt"

	"repro/internal/autoscale"
	"repro/internal/fleet"
	"repro/internal/router"
	"repro/internal/workload"
)

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

// AutoscaleSweepParallel compares provisioning strategies on the
// square-wave burst scenario: a fixed trough-sized fleet (sheds the peak),
// a fixed peak-sized fleet (over-provisions the trough), and the elastic
// pool, all at the same admission bound. The elastic pool should match
// the peak fleet's shed rate at materially fewer GPU-seconds. The
// savings-vs-peak column is derived after all cells return. Cells fan
// across parallel workers and run on shards kernel workers; rows are
// byte-identical at any count of either.
func AutoscaleSweepParallel(seed int64, small bool, parallel, shards int) ([]AutoscaleSweepRow, CellStats, error) {
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
	const (
		maxInst = 4
		duty    = 0.4
	)
	ds := skewedDataset(seed, small)
	peakMode := fmt.Sprintf("fixed-%d", maxInst)
	return sweep[AutoscaleSweepRow]{
		name:     "autoscale",
		datasets: []*workload.Dataset{ds},
		cells: func(sat []float64) []cell {
			// Trough load keeps roughly one instance busy; peak needs ~80% of
			// the full ceiling — a >3x swing, which is what a static fleet
			// cannot serve efficiently from either end. The period is sized
			// so the run spans ~3 cycles.
			perInst := sat[0] / 2
			base := 0.7 * perInst
			peak := 0.8 * perInst * float64(maxInst)
			avgRate := duty*peak + (1-duty)*base
			period := float64(len(ds.Requests)) / avgRate / 3
			arr := Arrivals{Rate: workload.SquareWaveRate(base, peak, period, duty), MaxRate: peak, Seed: seed}
			rt := &router.Config{Policy: router.AffinityLoad{}, MaxBacklogSeconds: bound}
			return []cell{
				{name: fmt.Sprintf("fixed-%d", minInst), spec: fleet.Spec{Instances: minInst, Router: rt}, arrivals: arr},
				{name: peakMode, spec: fleet.Spec{Instances: maxInst, Router: rt}, arrivals: arr},
				{name: fmt.Sprintf("autoscale-%d:%d", minInst, maxInst), arrivals: arr, spec: fleet.Spec{Router: rt,
					Autoscale: &autoscale.Config{MinInstances: minInst, MaxInstances: maxInst}}},
			}
		},
		row: func(c cell, ds *workload.Dataset, r *FleetResult) AutoscaleSweepRow {
			lat := latencySummary(r.Records)
			f := r.Fleet
			row := AutoscaleSweepRow{
				Mode:            c.name,
				Dataset:         ds.Name,
				MeanJCT:         lat.Mean,
				P99JCT:          lat.P99,
				ShedRate:        float64(f.Rejected()) / float64(len(ds.Requests)),
				GPUSeconds:      f.GPUSeconds(r.Makespan),
				Completed:       len(r.Records),
				Rejected:        f.Rejected(),
				PeakInstances:   c.spec.Instances,
				TroughInstances: c.spec.Instances,
			}
			if ctl := f.Autoscaler(); ctl != nil {
				st := ctl.Stats()
				row.PeakInstances = st.PeakInstances
				row.TroughInstances = st.MinInstances
				row.ScaleUps = st.ScaleUps
				row.ScaleDowns = st.ScaleDowns
				row.ColdStartSeconds = st.ColdStartSeconds
			}
			return row
		},
		derive: func(rows []AutoscaleSweepRow) {
			var peakGPUSeconds float64
			for _, r := range rows {
				if r.Mode == peakMode {
					peakGPUSeconds = r.GPUSeconds
				}
			}
			for i := range rows {
				if peakGPUSeconds > 0 {
					rows[i].GPUSavingsVsPeak = 1 - rows[i].GPUSeconds/peakGPUSeconds
				}
			}
		},
	}.run(parallel, shards)
}

// skewedDataset is the Zipf-skewed workload of the autoscale and chaos
// sweeps; small scales it down for tests and smoke benches.
func skewedDataset(seed int64, small bool) *workload.Dataset {
	if small {
		return workload.Skewed(workload.SkewedConfig{
			Users: 24, Requests: 144, ProfileMean: 3000, ProfileStd: 800,
			ProfileMin: 1500, ProfileMax: 5000, Seed: seed,
		})
	}
	return workload.Skewed(workload.SkewedConfig{Seed: seed})
}
