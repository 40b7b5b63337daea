package experiments

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/sim"
)

// KernelBenchResult captures the sim kernel's raw event throughput and
// allocation cost at a constant pending depth — the regime every serving
// run keeps the kernel in. Two paths are measured on the same workload
// shape: the closure path (a fresh capturing closure per scheduled event,
// the idiom every engine used before the value-heap kernel; the pre-
// refactor kernel additionally paid a heap-allocated *event and a
// container/heap interface boxing per event on top of it) and the
// zero-alloc fast path (package-level callback + reused payload pointer).
// cmd/prefillbench writes this as BENCH_kernel.json so kernel regressions
// show up in the benchmark trajectory.
type KernelBenchResult struct {
	// Events is how many events each path executed.
	Events int `json:"events"`
	// Depth is the constant pending-event depth during the measurement.
	Depth int `json:"depth"`
	// ClosureEventsPerSec is the closure path's throughput.
	ClosureEventsPerSec float64 `json:"closure_events_per_sec"`
	// ClosureAllocsPerEvent is the closure path's heap allocations per event.
	ClosureAllocsPerEvent float64 `json:"closure_allocs_per_event"`
	// FastPathEventsPerSec is the zero-alloc fast path's throughput.
	FastPathEventsPerSec float64 `json:"fastpath_events_per_sec"`
	// FastPathAllocsPerEvent is the fast path's heap allocations per event
	// (0 in steady state; pinned by internal/sim's AllocsPerRun test).
	FastPathAllocsPerEvent float64 `json:"fastpath_allocs_per_event"`
	// FastPathSpeedup is FastPathEventsPerSec / ClosureEventsPerSec.
	FastPathSpeedup float64 `json:"fastpath_speedup"`
	// HostCPUs and GoVersion record the measurement host: shard scaling
	// (and absolute throughput) are functions of the core count and
	// toolchain, so the committed artifact carries its provenance.
	HostCPUs  int    `json:"host_cpus"`
	GoVersion string `json:"go_version"`
	// ShardChains and ShardEvents size the shard-scaling workload: chains
	// of self-rescheduling instance-local events with a low cross-shard
	// post rate, the sharded kernel's target regime.
	ShardChains int `json:"shard_chains"`
	ShardEvents int `json:"shard_events"`
	// ShardScaling measures the same chain population per shard count;
	// the shards=1 row is the serial kernel (the baseline every speedup
	// is against).
	ShardScaling []KernelShardRow `json:"shard_scaling"`
}

// KernelShardRow is one shard count's throughput on the scaling workload.
type KernelShardRow struct {
	Shards         int     `json:"shards"`
	EventsPerSec   float64 `json:"events_per_sec"`
	Speedup        float64 `json:"speedup_vs_serial"`
	AllocsPerEvent float64 `json:"allocs_per_event"`
	// Kernel is the sharded kernel's self-profile for this row (absent on
	// the serial baseline): why the measured speedup is what it is —
	// window widths, which bound clamped them, and where shards stalled.
	Kernel *KernelProfile `json:"kernel,omitempty"`
}

// KernelProfile is sim.KernelStats rendered for the JSON artifact.
type KernelProfile struct {
	LookaheadSeconds  float64 `json:"lookahead_seconds"`
	CoordinatorEvents uint64  `json:"coordinator_events"`
	TotalEvents       uint64  `json:"total_events"`
	Windows           uint64  `json:"windows"`
	// WindowsBoundByCoordinator counts windows clamped by the next
	// coordinator event; WindowsBoundByLookahead counts windows that
	// opened to the full lookahead.
	WindowsBoundByCoordinator uint64 `json:"windows_bound_by_coordinator"`
	WindowsBoundByLookahead   uint64 `json:"windows_bound_by_lookahead"`
	// WindowWidthBounds are the width histogram's bucket upper bounds as
	// fractions of the lookahead; WindowWidthHist the per-bucket counts.
	WindowWidthBounds []float64 `json:"window_width_bounds_of_lookahead"`
	WindowWidthHist   []uint64  `json:"window_width_hist"`
	// BarrierStallBoundsNanos are the stall histogram's bucket upper
	// bounds in wall nanoseconds (final 0 = unbounded);
	// BarrierStallHist counts one observation per active shard per
	// parallel window.
	BarrierStallBoundsNanos []float64      `json:"barrier_stall_bounds_nanos"`
	BarrierStallHist        []uint64       `json:"barrier_stall_hist"`
	Shards                  []ShardProfile `json:"shards"`
}

// ShardProfile is one shard's slice of the profile.
type ShardProfile struct {
	ID         int    `json:"id"`
	Events     uint64 `json:"events"`
	Windows    uint64 `json:"windows"`
	BusyNanos  uint64 `json:"busy_nanos"`
	StallNanos uint64 `json:"stall_nanos"`
	// StallFraction is StallNanos / (BusyNanos + StallNanos): the share
	// of the shard's in-window wall time spent waiting at barriers.
	StallFraction float64 `json:"stall_fraction"`
}

// KernelProfileFrom renders kernel stats into the JSON artifact shape.
func KernelProfileFrom(st sim.KernelStats) *KernelProfile {
	p := &KernelProfile{
		LookaheadSeconds:          st.Lookahead,
		CoordinatorEvents:         st.CoordinatorEvents,
		TotalEvents:               st.TotalEvents,
		Windows:                   st.Windows,
		WindowsBoundByCoordinator: st.BoundCoordinator,
		WindowsBoundByLookahead:   st.BoundLookahead,
		WindowWidthBounds:         sim.WindowWidthBounds(),
		WindowWidthHist:           append([]uint64(nil), st.WindowWidth[:]...),
		BarrierStallBoundsNanos:   sim.StallBoundsNanos(),
		BarrierStallHist:          append([]uint64(nil), st.BarrierStall[:]...),
	}
	for _, sh := range st.ShardStats {
		sp := ShardProfile{
			ID:         sh.ID,
			Events:     sh.Events,
			Windows:    sh.Windows,
			BusyNanos:  sh.BusyNanos,
			StallNanos: sh.StallNanos,
		}
		if tot := sh.BusyNanos + sh.StallNanos; tot > 0 {
			sp.StallFraction = float64(sh.StallNanos) / float64(tot)
		}
		p.Shards = append(p.Shards, sp)
	}
	return p
}

// kernelChain is the fast-path payload: each firing reschedules itself,
// holding the pending depth constant.
type kernelChain struct {
	s         *sim.Sim
	remaining int
}

func kernelChainStep(arg any) {
	c := arg.(*kernelChain)
	if c.remaining > 0 {
		c.remaining--
		c.s.AfterFunc(1, kernelChainStep, c)
	}
}

// kernelMeasure runs one path to completion and returns (events/sec,
// allocs/event).
func kernelMeasure(events int, run func()) (float64, float64) {
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	start := time.Now()
	run()
	wall := time.Since(start).Seconds()
	runtime.ReadMemStats(&m1)
	eps := 0.0
	if wall > 0 {
		eps = float64(events) / wall
	}
	return eps, float64(m1.Mallocs-m0.Mallocs) / float64(events)
}

// Shard-scaling workload constants: a fleet-sized population of
// instance-local chains (each models one engine's pass/dispatch stream)
// with one cross-shard post per shardPostEvery firings (the router/
// autoscale interaction rate — low, so conservative windows stay large).
const (
	shardChains    = 1024
	shardPostEvery = 1024
	shardLookahead = 1.0
)

// shardChain is one instance-local event stream of the scaling workload.
// Chains reschedule on their own shard clock with a golden-ratio-staggered
// period >= the lookahead, so shards execute large windows between
// barriers.
type shardChain struct {
	clock     sim.Clock
	post      func(t float64, fn sim.Func, arg any)
	dt        float64
	remaining int
	sincePost int
}

func shardChainStep(arg any) {
	c := arg.(*shardChain)
	if c.remaining <= 0 {
		return
	}
	c.remaining--
	c.sincePost++
	if c.sincePost >= shardPostEvery {
		c.sincePost = 0
		// Cross-shard work: a coordinator event outside the lookahead
		// window, the way engines hand completions to the router.
		c.post(c.clock.Now()+2*shardLookahead, shardCoordTick, nil)
	}
	c.clock.AfterFunc(c.dt, shardChainStep, c)
}

func shardCoordTick(any) {}

// shardMeasure runs one shard-scaling cell and returns (events/sec,
// allocs/event) with the event count reported by the kernel itself.
func shardMeasure(run func() uint64) (float64, float64) {
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	start := time.Now()
	n := run()
	wall := time.Since(start).Seconds()
	runtime.ReadMemStats(&m1)
	eps := 0.0
	if wall > 0 && n > 0 {
		eps = float64(n) / wall
	}
	if n == 0 {
		return eps, 0
	}
	return eps, float64(m1.Mallocs-m0.Mallocs) / float64(n)
}

// shardWorkload populates the kernel with the chain population. Chain i
// runs on shard i % Shards() and posts its cross-shard work with
// Shard.Post, the only coordinator-scheduling call legal from a shard
// worker; on a kernel without shards it runs on the kernel itself.
func shardWorkload(steps int, k *sim.Sim) {
	const phi = 0.6180339887498949
	for i := 0; i < shardChains; i++ {
		fi := float64(i)
		c := &shardChain{
			clock:     k,
			post:      k.AtFunc,
			dt:        shardLookahead * (1 + mod1(fi*phi)/2),
			remaining: steps - 1,
		}
		if n := k.Shards(); n > 0 {
			sh := k.Shard(i % n)
			c.clock, c.post = sh, sh.Post
		}
		c.clock.AtFunc(mod1(fi*phi*phi)*shardLookahead, shardChainStep, c)
	}
}

// mod1 returns the fractional part of x.
func mod1(x float64) float64 { return x - float64(int(x)) }

// KernelBench measures the sim kernel's event throughput over roughly the
// given number of events (split across a depth-64 self-rescheduling
// population) on both scheduling paths, then the sharded kernel's scaling
// over the given shard counts (1 = the serial kernel baseline).
func KernelBench(events int, shardCounts []int) (*KernelBenchResult, error) {
	const depth = 64
	if events < depth {
		return nil, fmt.Errorf("experiments: kernel bench needs >= %d events, got %d", depth, events)
	}
	perChain := events / depth
	total := perChain * depth

	res := &KernelBenchResult{Events: total, Depth: depth}

	// Closure path: every reschedule builds a fresh capturing closure,
	// like the engines' dispatch completions did before the fast path.
	res.ClosureEventsPerSec, res.ClosureAllocsPerEvent = kernelMeasure(total, func() {
		var s sim.Sim
		var spawn func(remaining int)
		spawn = func(remaining int) {
			if remaining > 0 {
				s.After(1, func() { spawn(remaining - 1) })
			}
		}
		for i := 0; i < depth; i++ {
			i := i
			s.At(float64(i)/depth, func() { spawn(perChain - 1) })
		}
		s.Run()
	})

	// Fast path: package-level callback, one reused payload per chain.
	res.FastPathEventsPerSec, res.FastPathAllocsPerEvent = kernelMeasure(total, func() {
		var s sim.Sim
		for i := 0; i < depth; i++ {
			c := &kernelChain{s: &s, remaining: perChain - 1}
			s.AtFunc(float64(i)/depth, kernelChainStep, c)
		}
		s.Run()
	})

	if res.ClosureEventsPerSec > 0 {
		res.FastPathSpeedup = res.FastPathEventsPerSec / res.ClosureEventsPerSec
	}

	// Shard scaling: the same fleet-shaped chain population per shard
	// count. Chains round-robin onto shards exactly as engine instances do.
	res.HostCPUs = runtime.NumCPU()
	res.GoVersion = runtime.Version()
	steps := events / shardChains
	if steps < 2 {
		steps = 2
	}
	res.ShardChains = shardChains
	res.ShardEvents = steps * shardChains
	var serialEPS float64
	for _, n := range shardCounts {
		if n < 1 {
			return nil, fmt.Errorf("experiments: shard count must be >= 1, got %d", n)
		}
		var prof *KernelProfile
		eps, ape := shardMeasure(func() uint64 {
			k := &sim.Sim{}
			if n > 1 {
				k = sim.NewSharded(n, shardLookahead)
			}
			shardWorkload(steps, k)
			k.Run()
			if n > 1 {
				prof = KernelProfileFrom(k.Stats())
			}
			return k.Executed()
		})
		if n == 1 {
			serialEPS = eps
		}
		row := KernelShardRow{Shards: n, EventsPerSec: eps, AllocsPerEvent: ape, Kernel: prof}
		if serialEPS > 0 {
			row.Speedup = eps / serialEPS
		}
		res.ShardScaling = append(res.ShardScaling, row)
	}
	return res, nil
}
