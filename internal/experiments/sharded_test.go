package experiments

// Serial-vs-sharded kernel oracles at the experiments layer: every sweep
// and run must produce byte-identical results on the sharded kernel at
// any shard count. These are the end-to-end counterpart of internal/sim's
// TestShardedMatchesSerialOracle — they drive the real engines (pass
// pipelines, PP stage handoffs), the router (cross-shard completions),
// the autoscaler (cold starts, drains) and the tracer through both
// kernels. prefillbench's TestSweepOracles runs every sweep of its table,
// the chaos sweep included, on both axes.

import (
	"testing"

	"repro/internal/fleet"
	"repro/internal/router"
	"repro/internal/trace"
)

// TestRoutingSweepShardedOracle: the full routing sweep — router churn
// across four instances, admission accounting, load balance — must be
// byte-identical on the sharded kernel, with cell parallelism on top (the
// two axes compose).
func TestRoutingSweepShardedOracle(t *testing.T) {
	for _, shards := range []int{2, 8} {
		sweepOracle(t, RoutingSweepParallel, 2, shards)
	}
}

// TestAutoscaleSweepShardedOracle covers the most interleaving-sensitive
// path: the elastic pool's controller ticks on the coordinator while
// engines execute on shards, with mid-run scale-ups assigning new
// instances to shard clocks and drains retiring them.
func TestAutoscaleSweepShardedOracle(t *testing.T) {
	sweepOracle(t, AutoscaleSweepParallel, 1, 4)
}

// TestSLOSweepShardedOracle: two-class admission and weighted scheduling
// under the sharded kernel.
func TestSLOSweepShardedOracle(t *testing.T) {
	sweepOracle(t, SLOSweepParallel, 1, 2)
}

// TestRunShardedOraclePipelineParallel drives the PP=2 engines — whose
// stage handoffs are events between the two halves of one instance, i.e.
// strictly shard-local — across four GPU pairs on the sharded kernel.
func TestRunShardedOraclePipelineParallel(t *testing.T) {
	base := RoutingDatasets(1, true)[1] // small post-recommendation workload
	sc, err := ScenarioByName("L4")
	if err != nil {
		t.Fatal(err)
	}
	run := func(shards int) *RunResult {
		t.Helper()
		res, err := Run(RunConfig{
			Kind: PipelineParallel, Scenario: sc, Dataset: base.Clone(),
			QPS: 8, Seed: 1, TotalGPUs: 8, Shards: shards,
		})
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		return res
	}
	serial := run(0)
	for _, shards := range []int{2, 4} {
		got := run(shards)
		if len(got.Records) != len(serial.Records) {
			t.Fatalf("shards=%d: %d records, want %d", shards, len(got.Records), len(serial.Records))
		}
		for i := range serial.Records {
			a, b := serial.Records[i], got.Records[i]
			if a.Req.ID != b.Req.ID || a.Arrival != b.Arrival || a.Start != b.Start || a.Finish != b.Finish {
				t.Fatalf("shards=%d: record %d diverged: serial {id %d %v %v %v} sharded {id %d %v %v %v}",
					shards, i, a.Req.ID, a.Arrival, a.Start, a.Finish, b.Req.ID, b.Arrival, b.Start, b.Finish)
			}
		}
		if sa, sb := mustJSON(t, serial.Latency), mustJSON(t, got.Latency); string(sa) != string(sb) {
			t.Fatalf("shards=%d: latency summary diverged: %s vs %s", shards, sa, sb)
		}
		if serial.CacheHitRate != got.CacheHitRate {
			t.Fatalf("shards=%d: hit rate %v vs %v", shards, got.CacheHitRate, serial.CacheHitRate)
		}
	}
}

// TestTracedRoutingRunShardedOracle: tracing must not perturb the sharded
// run (outcomes equal to the serial traced run's), and the recorder's ring
// invariant — dropped + held == emitted, counted under the recorder's
// mutex — must hold exactly even with shard workers emitting concurrently.
func TestTracedRoutingRunShardedOracle(t *testing.T) {
	sc, err := ScenarioByName("L4")
	if err != nil {
		t.Fatal(err)
	}
	base := RoutingDatasets(1, true)
	run := func(shards int) ([]byte, *trace.Recorder) {
		t.Helper()
		rec := trace.New(256)
		r, err := FleetRun(fleet.Spec{
			Model: sc.Model, GPU: sc.GPU, Instances: 4,
			Router: &router.Config{Policy: router.AffinityLoad{}},
			Shards: shards, Tracer: rec, SampleSeconds: 0.5,
		}, base[0].Clone(), Arrivals{QPS: 12, Seed: 1})
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		return mustJSON(t, outcomesOf(r)), rec
	}
	serialOut, serialRec := run(1)
	for _, shards := range []int{4} {
		out, rec := run(shards)
		emitted, dropped, held := rec.TotalEmitted(), rec.Dropped(), rec.Len()
		if dropped+uint64(held) != emitted {
			t.Fatalf("shards=%d: ring invariant broken: dropped %d + held %d != emitted %d",
				shards, dropped, held, emitted)
		}
		if emitted != serialRec.TotalEmitted() {
			t.Fatalf("shards=%d: emitted %d spans, serial emitted %d", shards, emitted, serialRec.TotalEmitted())
		}
		if string(out) != string(serialOut) {
			t.Fatalf("sharded traced run diverged from serial:\nserial:  %s\nsharded: %s", serialOut, out)
		}
	}
}

// runOutcome is what the run oracles compare: each completion record's
// timing and cache hit, and the run's sheds and cache hit rate.
type runOutcome struct {
	Records      [][5]float64 // ID, arrival, start, finish, cached tokens
	Rejected     int
	CacheHitRate float64
}

// outcomesOf extracts a run's outcome.
func outcomesOf(r *FleetResult) runOutcome {
	o := runOutcome{Rejected: r.Fleet.Rejected(), CacheHitRate: r.Fleet.CacheHitRate()}
	for _, rec := range r.Records {
		o.Records = append(o.Records, [5]float64{float64(rec.Req.ID), rec.Arrival, rec.Start, rec.Finish, float64(rec.CachedTokens)})
	}
	return o
}
