package sim

import "testing"

// Kernel self-profile consistency: the stats a run reports must add up
// exactly against the counters the kernels already pin elsewhere —
// profiling that disagrees with the run it describes is worse than none.

// statsWorkload schedules event chains on every shard plus coordinator
// events, so windows get bound by both the coordinator stream and the
// lookahead.
func statsWorkload(p *Sim) int {
	total := 0
	for i := 0; i < p.Stats().Shards; i++ {
		sh := p.Shard(i)
		for k := 0; k < 6; k++ {
			sh.AtFunc(float64(k)*0.7+float64(i)*0.05, func(any) {}, nil)
			total++
		}
	}
	for k := 0; k < 4; k++ {
		p.AtFunc(float64(k)+0.5, func(any) {}, nil)
		total++
	}
	return total
}

// TestKernelStatsConsistency pins the profile's internal arithmetic on a
// sharded run: events decompose exactly into coordinator plus shards,
// every window was clamped by exactly one bound, the width histogram has
// one observation per window, and per-shard window counts never exceed
// the run's.
func TestKernelStatsConsistency(t *testing.T) {
	p := NewSharded(4, 0.5)
	total := statsWorkload(p)
	p.Run()

	st := p.Stats()
	if st.Shards != 4 || st.Lookahead != 0.5 {
		t.Fatalf("profile header wrong: %+v", st)
	}
	if st.TotalEvents != p.Executed() || st.TotalEvents != uint64(total) {
		t.Fatalf("TotalEvents %d, Executed %d, scheduled %d — must all agree",
			st.TotalEvents, p.Executed(), total)
	}
	var shardEvents, shardWindows uint64
	for i, sh := range st.ShardStats {
		if sh.ID != i {
			t.Fatalf("shard %d reports ID %d", i, sh.ID)
		}
		shardEvents += sh.Events
		shardWindows += sh.Windows
		if sh.Windows > st.Windows {
			t.Fatalf("shard %d active in %d windows, run had %d", i, sh.Windows, st.Windows)
		}
	}
	if st.CoordinatorEvents+shardEvents != st.TotalEvents {
		t.Fatalf("coordinator %d + shards %d != total %d",
			st.CoordinatorEvents, shardEvents, st.TotalEvents)
	}
	if shardEvents == 0 {
		t.Fatal("no shard events: the workload never exercised the parallel path")
	}
	if st.Windows == 0 {
		t.Fatal("no windows recorded")
	}
	if st.BoundCoordinator+st.BoundLookahead != st.Windows {
		t.Fatalf("bound counts %d+%d don't partition %d windows",
			st.BoundCoordinator, st.BoundLookahead, st.Windows)
	}
	var widthObs uint64
	for _, n := range st.WindowWidth {
		widthObs += n
	}
	if widthObs != st.Windows {
		t.Fatalf("width histogram holds %d observations, want one per window (%d)",
			widthObs, st.Windows)
	}
	// One stall observation per active shard per parallel window; a
	// window with a single active shard records none. Upper-bound check.
	var stallObs uint64
	for _, n := range st.BarrierStall {
		stallObs += n
	}
	if stallObs > shardWindows {
		t.Fatalf("stall histogram holds %d observations, more than %d shard-window activations",
			stallObs, shardWindows)
	}
}

// TestSerialStatsDegenerate pins the serial kernel's uniform-shape
// profile: everything is a coordinator event, no windows, no stalls.
func TestSerialStatsDegenerate(t *testing.T) {
	s := &Sim{}
	for k := 0; k < 5; k++ {
		s.AtFunc(float64(k), func(any) {}, nil)
	}
	s.Run()
	st := s.Stats()
	if st.Shards != 1 || st.Windows != 0 || st.Lookahead != 0 {
		t.Fatalf("serial profile not degenerate: %+v", st)
	}
	if st.TotalEvents != 5 || st.CoordinatorEvents != 5 {
		t.Fatalf("serial profile counts wrong: %+v", st)
	}
	if len(st.ShardStats) != 0 {
		t.Fatalf("serial profile reports shard stats: %+v", st.ShardStats)
	}
}

// TestStatsBoundsShapes pins the exported bucket-bound helpers the
// experiment exporter serializes next to the histograms.
func TestStatsBoundsShapes(t *testing.T) {
	w := WindowWidthBounds()
	if len(w) != NumWidthBuckets || w[len(w)-1] != 1.0 {
		t.Fatalf("width bounds wrong: %v", w)
	}
	s := StallBoundsNanos()
	if len(s) != NumStallBuckets || s[len(s)-1] != 0 {
		t.Fatalf("stall bounds wrong (last must be the +Inf marker 0): %v", s)
	}
	for i := 1; i < len(w); i++ {
		if w[i] <= w[i-1] {
			t.Fatalf("width bounds not ascending: %v", w)
		}
	}
	for i := 1; i < len(s)-1; i++ {
		if s[i] <= s[i-1] {
			t.Fatalf("stall bounds not ascending: %v", s)
		}
	}
}
