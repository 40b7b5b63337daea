package sim

// Kernel self-profiling: cheap counters and fixed-bucket histograms the
// kernel maintains while it runs, so the sharded kernel's scaling
// behaviour is explainable from the artifact it produces instead of being
// a single opaque events/sec number. Everything here is a plain integer
// increment or a fixed-array bucket bump — no allocation, no map, nothing
// that could disturb the kernel's zero-alloc discipline or its
// determinism (wall-clock stall measurements observe the run; they never
// feed back into event order).

// NumWidthBuckets is the window-width histogram size. Widths are recorded
// as a fraction of the lookahead (a conservative window is never wider
// than the lookahead), in log2-spaced buckets: <= 1/128 of the lookahead
// up to the full lookahead.
const NumWidthBuckets = 8

// NumStallBuckets is the barrier-stall histogram size. Stalls are wall
// nanoseconds a shard spent idle at a window barrier while other shards
// finished, in log10-spaced buckets from <= 1 microsecond to > 1 second.
const NumStallBuckets = 8

// widthBounds are the window-width bucket upper bounds as fractions of
// the lookahead. The last bucket (1.0) catches full-lookahead windows —
// the widest a conservative window can be.
var widthBounds = [NumWidthBuckets]float64{
	1.0 / 128, 1.0 / 64, 1.0 / 32, 1.0 / 16, 1.0 / 8, 1.0 / 4, 1.0 / 2, 1.0,
}

// stallBounds are the barrier-stall bucket upper bounds in wall
// nanoseconds. The last bucket is effectively +Inf (anything above 1s).
var stallBounds = [NumStallBuckets]float64{
	1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 0, // 0 marks the +Inf bucket
}

// WindowWidthBounds returns the width histogram's upper bounds as
// fractions of the lookahead, ascending.
func WindowWidthBounds() []float64 {
	out := make([]float64, NumWidthBuckets)
	copy(out, widthBounds[:])
	return out
}

// StallBoundsNanos returns the stall histogram's upper bounds in wall
// nanoseconds, ascending; the final bound is 0, meaning unbounded (+Inf).
func StallBoundsNanos() []float64 {
	out := make([]float64, NumStallBuckets)
	copy(out, stallBounds[:])
	return out
}

// widthBucket maps a width/lookahead ratio to its histogram bucket.
func widthBucket(ratio float64) int {
	for i := 0; i < NumWidthBuckets-1; i++ {
		if ratio <= widthBounds[i] {
			return i
		}
	}
	return NumWidthBuckets - 1
}

// stallBucket maps a stall in wall nanoseconds to its histogram bucket.
func stallBucket(nanos uint64) int {
	for i := 0; i < NumStallBuckets-1; i++ {
		if float64(nanos) <= stallBounds[i] {
			return i
		}
	}
	return NumStallBuckets - 1
}

// ShardStats is one shard's profile over a run.
type ShardStats struct {
	// ID is the shard index.
	ID int
	// Events is how many events the shard executed.
	Events uint64
	// Windows is how many windows the shard was active in (had at least
	// one event to execute before the bound).
	Windows uint64
	// BusyNanos is the wall time the shard spent executing its windows.
	BusyNanos uint64
	// StallNanos is the wall time the shard spent idle at window
	// barriers waiting for slower shards (parallel windows only).
	StallNanos uint64
}

// KernelStats is a kernel's self-profile: how its run decomposed into
// coordinator events and conservative windows, how wide those windows
// were, which bound clamped them, and where shards stalled. The serial
// kernel reports a degenerate profile (every event is a coordinator
// event, no windows), so callers treat every shard count uniformly.
type KernelStats struct {
	// Shards is the shard count (1 for the serial kernel).
	Shards int
	// Lookahead is the kernel's lookahead in sim seconds (0 serial).
	Lookahead float64
	// CoordinatorEvents is how many events ran on the coordinator.
	CoordinatorEvents uint64
	// HeapPeak is the most events the coordinator's heap has held at
	// once; the events waiting in its ring (see AtFuncInOrder) do not
	// count.
	HeapPeak int
	// TotalEvents is CoordinatorEvents plus every shard's events.
	TotalEvents uint64
	// Windows is how many conservative windows the run advanced through.
	Windows uint64
	// BoundCoordinator counts windows whose bound was clamped by the
	// next coordinator event (cmin < smin + lookahead) or a RunUntil
	// deadline: the coordinator's event stream, not the lookahead,
	// limited parallel progress.
	BoundCoordinator uint64
	// BoundLookahead counts windows that opened to the full lookahead
	// (bound = smin + lookahead): the kernel's best case.
	BoundLookahead uint64
	// WindowWidth is the histogram of (bound - smin) / lookahead over
	// windows, bucket bounds WindowWidthBounds.
	WindowWidth [NumWidthBuckets]uint64
	// BarrierStall is the histogram of per-shard idle time at parallel
	// window barriers in wall nanoseconds, bounds StallBoundsNanos. One
	// observation per active shard per parallel window.
	BarrierStall [NumStallBuckets]uint64
	// ShardStats is the per-shard breakdown, by shard index.
	ShardStats []ShardStats
}

// Stats returns a snapshot of the kernel's self-profile. A serial kernel
// reports the degenerate profile: one shard, every executed event a
// coordinator event, no windows and no stalls. Like Executed it reads
// plain per-shard fields, which the strict phase alternation makes exact
// from coordinator context or between runs.
func (s *Sim) Stats() KernelStats {
	st := KernelStats{
		Shards:            max(len(s.shards), 1),
		Lookahead:         s.lookahead,
		CoordinatorEvents: s.executed,
		HeapPeak:          s.heap.peak,
		TotalEvents:       s.executed,
		Windows:           s.windows,
		BoundCoordinator:  s.boundCoord,
		BoundLookahead:    s.boundLook,
		WindowWidth:       s.widthHist,
		BarrierStall:      s.stallHist,
	}
	st.ShardStats = make([]ShardStats, len(s.shards))
	for i, sh := range s.shards {
		st.ShardStats[i] = ShardStats{
			ID:         sh.id,
			Events:     sh.executed,
			Windows:    sh.windows,
			BusyNanos:  sh.busyNanos,
			StallNanos: sh.stallNanos,
		}
		st.TotalEvents += sh.executed
	}
	return st
}
