package experiments

import (
	"encoding/json"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
)

func TestRunCellsIndexOrder(t *testing.T) {
	for _, parallel := range []int{1, 4, 16} {
		out, stats, err := runCells(parallel, 37, func(i int) (int, error) { return i * i, nil })
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range out {
			if v != i*i {
				t.Fatalf("parallel=%d: out[%d] = %d, want %d", parallel, i, v, i*i)
			}
		}
		if stats.Cells != 37 {
			t.Fatalf("stats.Cells = %d", stats.Cells)
		}
		if stats.WallSeconds < 0 || stats.SerialEquivalentSeconds < 0 {
			t.Fatalf("negative timing: %+v", stats)
		}
	}
}

func TestRunCellsPropagatesError(t *testing.T) {
	boom := errors.New("boom")
	for _, parallel := range []int{1, 4} {
		_, _, err := runCells(parallel, 10, func(i int) (int, error) {
			if i == 7 {
				return 0, fmt.Errorf("cell %d: %w", i, boom)
			}
			return i, nil
		})
		if !errors.Is(err, boom) {
			t.Fatalf("parallel=%d: err = %v, want wrapped boom", parallel, err)
		}
	}
}

func TestRunCellsSerialStopsAtFirstError(t *testing.T) {
	var ran atomic.Int64
	_, _, err := runCells(1, 10, func(i int) (int, error) {
		ran.Add(1)
		if i == 2 {
			return 0, errors.New("stop")
		}
		return i, nil
	})
	if err == nil {
		t.Fatal("error swallowed")
	}
	if ran.Load() != 3 {
		t.Fatalf("serial path ran %d cells after failure at cell 2", ran.Load())
	}
}

func TestRunCellsZeroCells(t *testing.T) {
	out, stats, err := runCells(4, 0, func(i int) (int, error) { return 0, nil })
	if err != nil || len(out) != 0 || stats.Cells != 0 {
		t.Fatalf("out=%v stats=%+v err=%v", out, stats, err)
	}
}

func TestCellStatsMerge(t *testing.T) {
	a := CellStats{Cells: 2, Parallelism: 1, WallSeconds: 1, SerialEquivalentSeconds: 1, AllocsPerCell: 10}
	b := CellStats{Cells: 6, Parallelism: 4, WallSeconds: 1, SerialEquivalentSeconds: 3, AllocsPerCell: 20}
	m := a.Merge(b)
	if m.Cells != 8 || m.Parallelism != 4 {
		t.Fatalf("merge: %+v", m)
	}
	if m.WallSeconds != 2 || m.SerialEquivalentSeconds != 4 || m.Speedup != 2 {
		t.Fatalf("merge timing: %+v", m)
	}
	if want := (10.0*2 + 20.0*6) / 8; m.AllocsPerCell != want {
		t.Fatalf("merge allocs: %v, want %v", m.AllocsPerCell, want)
	}
}

// mustJSON marshals rows for byte-level comparison.
func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	buf, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return buf
}

// sweepOracle requires a sweep's rows at (parallel, shards) to be
// byte-identical to its rows at parallel 1 on the serial kernel.
func sweepOracle[R any](t *testing.T, sweep func(seed int64, small bool, parallel, shards int) ([]R, CellStats, error), parallel, shards int) {
	t.Helper()
	serialRows, _, err := sweep(1, true, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	rows, _, err := sweep(1, true, parallel, shards)
	if err != nil {
		t.Fatalf("parallel %d, shards %d: %v", parallel, shards, err)
	}
	if a, b := mustJSON(t, serialRows), mustJSON(t, rows); string(a) != string(b) {
		t.Fatalf("parallel %d, shards %d: rows diverge from the serial run's:\nserial: %s\ngot:    %s", parallel, shards, a, b)
	}
}

// TestRoutingSweepParallelOracle: fanning the routing sweep's cells across
// 4 workers must produce rows byte-identical to the serial executor's —
// parallelism may change the wall clock, never the output.
func TestRoutingSweepParallelOracle(t *testing.T) {
	sweepOracle(t, RoutingSweepParallel, 4, 1)
}

// TestSLOSweepParallelOracle is the executor oracle for the SLO sweep.
func TestSLOSweepParallelOracle(t *testing.T) {
	sweepOracle(t, SLOSweepParallel, 4, 1)
}

// TestAutoscaleSweepParallelOracle covers the sweep whose rows carry the
// most interleaving-sensitive state (controller activity, GPU-seconds).
func TestAutoscaleSweepParallelOracle(t *testing.T) {
	sweepOracle(t, AutoscaleSweepParallel, 3, 1)
}

func TestKernelBench(t *testing.T) {
	res, err := KernelBench(100_000, []int{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Events < 99_000 {
		t.Fatalf("events = %d", res.Events)
	}
	if res.FastPathEventsPerSec <= 0 || res.ClosureEventsPerSec <= 0 {
		t.Fatalf("degenerate throughput: %+v", res)
	}
	// The fast path exists to eliminate per-event allocations; the closure
	// path allocates at least the closure per event.
	if res.FastPathAllocsPerEvent >= res.ClosureAllocsPerEvent {
		t.Fatalf("fast path allocates %.2f/event vs closure %.2f/event",
			res.FastPathAllocsPerEvent, res.ClosureAllocsPerEvent)
	}
	if res.FastPathAllocsPerEvent > 0.05 {
		t.Fatalf("fast path allocates %.3f/event, want ~0", res.FastPathAllocsPerEvent)
	}
	if res.HostCPUs <= 0 || res.GoVersion == "" {
		t.Fatalf("missing provenance: %+v", res)
	}
	if len(res.ShardScaling) != 2 {
		t.Fatalf("shard scaling rows = %d, want 2", len(res.ShardScaling))
	}
	for _, row := range res.ShardScaling {
		if row.EventsPerSec <= 0 {
			t.Fatalf("degenerate shard row: %+v", row)
		}
		// The chain workload is zero-alloc in steady state on both
		// kernels; the sharded row additionally amortizes worker startup
		// and outbox growth over ~100k events.
		if row.AllocsPerEvent > 0.05 {
			t.Fatalf("shard row %d allocates %.3f/event, want ~0", row.Shards, row.AllocsPerEvent)
		}
	}
	if res.ShardScaling[0].Shards != 1 || res.ShardScaling[0].Speedup != 1 {
		t.Fatalf("serial baseline row: %+v", res.ShardScaling[0])
	}
	// Pre-scheduled arrivals deepen the heap to the arrival count through
	// AtFunc; through AtFuncInOrder they wait in the ring, and the heap
	// holds only the ~8 follow-ups in flight.
	if pre := res.Prescheduled; len(pre) != 2 || pre[0].EventsPerSec <= 0 || pre[1].EventsPerSec <= 0 ||
		pre[0].HeapPeak != preschedArrivals || pre[1].HeapPeak > 16 {
		t.Fatalf("pre-scheduled rows: %+v", pre)
	}
	if _, err := KernelBench(3, nil); err == nil {
		t.Fatal("tiny event count accepted")
	}
}
