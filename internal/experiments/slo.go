package experiments

// Multi-tenant SLO experiment: the same two-class workload (Zipf-skewed
// interactive traffic mixed with long batch documents, bursty open-loop
// arrivals) served by the same fixed fleet under two configurations:
//
//   - class-blind: one admission bound for every request, the paper's
//     class-blind Algorithm-1 scheduler — batch documents sit ahead of
//     interactive requests in the queue and consume the shared admission
//     headroom, so bursts shed interactive load and inflate its tail.
//   - class-aware: batch gets a smaller backlog budget (shed first, before
//     interactive headroom is touched) and a JCT weight > 1 in the
//     calibrated heap key (yields the GPU to interactive work), while the
//     interactive bound is unchanged.
//
// The fleet is fixed and identical in both runs, so GPU-seconds are equal
// by construction up to makespan drift: the comparison isolates what the
// class machinery buys — interactive p99 — and what it costs — batch
// goodput and batch shed.

import (
	"repro/internal/fleet"
	"repro/internal/metrics"
	"repro/internal/router"
	"repro/internal/sched"
	"repro/internal/workload"
)

// SLOSweepRow is one mode of the class-blind vs class-aware comparison.
type SLOSweepRow struct {
	Mode               string  `json:"mode"`
	Dataset            string  `json:"dataset"`
	InteractiveMeanJCT float64 `json:"interactive_mean_jct_seconds"`
	InteractiveP99JCT  float64 `json:"interactive_p99_jct_seconds"`
	InteractiveShed    int     `json:"interactive_shed"`
	InteractiveOffered int     `json:"interactive_offered"`
	BatchMeanJCT       float64 `json:"batch_mean_jct_seconds"`
	BatchShed          int     `json:"batch_shed"`
	BatchOffered       int     `json:"batch_offered"`
	BatchGoodputTPS    float64 `json:"batch_goodput_tokens_per_second"`
	GPUSeconds         float64 `json:"gpu_seconds"`
	Completed          int     `json:"completed"`
}

// SLOSweepParallel runs the two-class workload through the class-blind
// and the class-aware configuration on an identical fixed fleet (equal
// GPU-seconds up to makespan drift) and reports both rows: class-aware
// must buy a strictly better interactive p99, paying with batch sheds
// that start before any interactive request is dropped. Cells fan across
// parallel workers and run on shards kernel workers; rows are
// byte-identical at any count of either.
func SLOSweepParallel(seed int64, small bool, parallel, shards int) ([]SLOSweepRow, CellStats, error) {
	// Sizing: the fleet and interactive bound follow the autoscale sweep's
	// rules; the batch budget reserves the headroom between it and the
	// interactive bound for the latency tier, and the batch weight makes a
	// queued batch document (several thousand cache-cold tokens) rank
	// behind every plausible interactive request.
	instances, bound := 2, 8.0
	if !small {
		instances, bound = 4, 12.0
	}
	const (
		batchBudgetFrac = 0.35
		batchWeight     = 4.0
		duty            = 0.35
	)
	mix := workload.ClassMixConfig{Seed: seed}
	if small {
		mix = workload.ClassMixConfig{
			Interactive: workload.SkewedConfig{
				Users: 24, Requests: 120, ProfileMean: 3000, ProfileStd: 800,
				ProfileMin: 1500, ProfileMax: 5000,
			},
			BatchFraction: 0.25, BatchUsers: 6,
			BatchLenMin: 4000, BatchLenMax: 8000,
			Seed: seed,
		}
	}
	ds := workload.ClassMix(mix)
	return sweep[SLOSweepRow]{
		name:     "slo",
		datasets: []*workload.Dataset{ds},
		cells: func(sat []float64) []cell {
			// Offered load: a square wave whose peak overruns the fleet, so
			// the burst front must be absorbed by admission control — the
			// regime where who gets shed is the whole game.
			perInst := sat[0] / 2
			base := 0.6 * perInst * float64(instances)
			peak := 2.5 * perInst * float64(instances)
			avgRate := duty*peak + (1-duty)*base
			period := float64(len(ds.Requests)) / avgRate / 3
			arr := Arrivals{Rate: workload.SquareWaveRate(base, peak, period, duty), MaxRate: peak, Seed: seed}
			blind := fleet.Spec{Instances: instances,
				Router: &router.Config{Policy: router.AffinityLoad{}, MaxBacklogSeconds: bound}}
			aware := blind
			aware.Router = &router.Config{Policy: router.AffinityLoad{}, MaxBacklogSeconds: bound,
				ClassBacklogSeconds: map[sched.Class]float64{sched.ClassBatch: batchBudgetFrac * bound}}
			aware.Core.ClassWeights = map[sched.Class]float64{sched.ClassBatch: batchWeight}
			return []cell{{name: "class-blind", spec: blind, arrivals: arr}, {name: "class-aware", spec: aware, arrivals: arr}}
		},
		row: sloRow,
	}.run(parallel, shards)
}

// sloRow projects a two-class run: per-class latency, offered load and
// sheds, and the batch tenant's goodput (completed input tokens per
// second of makespan).
func sloRow(c cell, ds *workload.Dataset, r *FleetResult) SLOSweepRow {
	var interLats, batchLats []float64
	var batchTokens int64
	for _, rec := range r.Records {
		if rec.Req.Class == sched.ClassBatch {
			batchLats = append(batchLats, rec.Latency())
			batchTokens += int64(rec.Req.Len())
		} else {
			interLats = append(interLats, rec.Latency())
		}
	}
	inter, batch := metrics.Summarize(interLats), metrics.Summarize(batchLats)
	f := r.Fleet
	row := SLOSweepRow{
		Mode:               c.name,
		Dataset:            ds.Name,
		InteractiveMeanJCT: inter.Mean,
		InteractiveP99JCT:  inter.P99,
		BatchMeanJCT:       batch.Mean,
		BatchShed:          f.RejectedClass(sched.ClassBatch),
		GPUSeconds:         f.GPUSeconds(r.Makespan),
		Completed:          len(r.Records),
	}
	row.InteractiveShed = f.Rejected() - row.BatchShed
	for _, q := range ds.Requests {
		if q.Class == sched.ClassBatch {
			row.BatchOffered++
		} else {
			row.InteractiveOffered++
		}
	}
	if r.Makespan > 0 {
		row.BatchGoodputTPS = float64(batchTokens) / r.Makespan
	}
	return row
}
