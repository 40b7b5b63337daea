package experiments

// The parallel cell executor. Every sweep in this package decomposes into
// independent (config, seed) cells: each cell builds its own sim.Sim, its
// own dataset (cloned from an immutable base), and its own seeded RNGs,
// shares no mutable state, and is fully deterministic. runCells fans
// those cells across a bounded worker pool and aggregates results in
// index order, so a parallel sweep's rows are byte-identical to the
// serial sweep's — parallelism changes wall-clock only, never output
// (pinned by prefillbench's TestSweepOracles).

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// DefaultParallel is the default sweep parallelism: one worker per
// schedulable CPU (GOMAXPROCS).
func DefaultParallel() int { return runtime.GOMAXPROCS(0) }

// CellStats is the executor's harness-performance telemetry for one
// sweep: what the cells cost end-to-end versus what the same cells would
// have cost back-to-back on one core, plus the allocation bill. Sweeps
// surface it into their BENCH_*.json so harness regressions are visible.
type CellStats struct {
	// Cells is how many cells executed.
	Cells int `json:"cells"`
	// Parallelism is the worker count the cells ran under.
	Parallelism int `json:"parallelism"`
	// HostCPUs is runtime.NumCPU() at measurement time. Speedup is bounded
	// by min(Parallelism, HostCPUs, cells' duration balance); a recorded
	// speedup of ~1x on HostCPUs=1 is the hardware ceiling, not an
	// executor regression.
	HostCPUs int `json:"host_cpus"`
	// WallSeconds is the elapsed time of the whole fan-out.
	WallSeconds float64 `json:"wall_seconds"`
	// SerialEquivalentSeconds sums every cell's own duration — an estimate
	// of the time the pre-runner serial loop would have spent on the same
	// cells. Per-cell durations are wall times, so when workers outnumber
	// idle cores the estimate inflates by the time-sliced waiting; for a
	// measured (not estimated) speedup, run the sweep at parallel=1 and
	// compare wall seconds (prefillbench -compare-serial does exactly
	// that).
	SerialEquivalentSeconds float64 `json:"serial_equivalent_seconds"`
	// Speedup is SerialEquivalentSeconds / WallSeconds.
	Speedup float64 `json:"speedup"`
	// AllocsPerCell is the process heap-allocation count accrued across
	// the sweep divided by the cell count (process-wide, so concurrent
	// non-sweep work pollutes it slightly; it is telemetry, not a pin).
	AllocsPerCell float64 `json:"allocs_per_cell"`
}

// Merge folds another phase's stats into s (cells and times accumulate,
// parallelism takes the max) and rederives the speedup. Sweeps with a
// saturation pre-phase report one merged CellStats.
func (s CellStats) Merge(o CellStats) CellStats {
	allocs := s.AllocsPerCell*float64(s.Cells) + o.AllocsPerCell*float64(o.Cells)
	s.Cells += o.Cells
	if o.Parallelism > s.Parallelism {
		s.Parallelism = o.Parallelism
	}
	if o.HostCPUs > s.HostCPUs {
		s.HostCPUs = o.HostCPUs
	}
	s.WallSeconds += o.WallSeconds
	s.SerialEquivalentSeconds += o.SerialEquivalentSeconds
	if s.Cells > 0 {
		s.AllocsPerCell = allocs / float64(s.Cells)
	}
	if s.WallSeconds > 0 {
		s.Speedup = s.SerialEquivalentSeconds / s.WallSeconds
	}
	return s
}

// runCells executes fn over cell indices [0, n) and returns the results
// in index order. parallel <= 0 means DefaultParallel; parallel == 1 runs
// the cells serially on the calling goroutine, stopping at the first
// error exactly like the pre-runner sweep loops. With parallel > 1 the
// cells fan across min(parallel, n) workers pulling indices from a shared
// counter; workers stop claiming new cells once any cell fails, and the
// lowest-indexed error is reported. Because aggregation is index-ordered
// and each cell is self-contained, the success-path results are identical
// at every parallelism level.
func runCells[T any](parallel, n int, fn func(i int) (T, error)) ([]T, CellStats, error) {
	if parallel <= 0 {
		parallel = DefaultParallel()
	}
	if parallel > n {
		parallel = n
	}
	stats := CellStats{Cells: n, Parallelism: parallel, HostCPUs: runtime.NumCPU()}
	if n == 0 {
		return nil, stats, nil
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	out := make([]T, n)
	errs := make([]error, n)
	var serialNS atomic.Int64

	if parallel <= 1 {
		stats.Parallelism = 1
		for i := 0; i < n; i++ {
			t0 := time.Now()
			v, err := fn(i)
			serialNS.Add(int64(time.Since(t0)))
			if err != nil {
				errs[i] = err
				break
			}
			out[i] = v
		}
	} else {
		var next atomic.Int64
		var failed atomic.Bool
		var wg sync.WaitGroup
		for w := 0; w < parallel; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for !failed.Load() {
					i := int(next.Add(1)) - 1
					if i >= n {
						return
					}
					t0 := time.Now()
					v, err := fn(i)
					serialNS.Add(int64(time.Since(t0)))
					if err != nil {
						errs[i] = err
						failed.Store(true)
						return
					}
					out[i] = v
				}
			}()
		}
		wg.Wait()
	}

	stats.WallSeconds = time.Since(start).Seconds()
	stats.SerialEquivalentSeconds = time.Duration(serialNS.Load()).Seconds()
	if stats.WallSeconds > 0 {
		stats.Speedup = stats.SerialEquivalentSeconds / stats.WallSeconds
	}
	runtime.ReadMemStats(&m1)
	stats.AllocsPerCell = float64(m1.Mallocs-m0.Mallocs) / float64(n)
	for _, err := range errs {
		if err != nil {
			return nil, stats, err
		}
	}
	return out, stats, nil
}
