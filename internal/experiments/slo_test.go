package experiments

import "testing"

// TestSLOSweep is the multi-tenant acceptance check: on the same fixed
// fleet (equal GPU-seconds up to makespan drift), class-aware admission +
// scheduling must deliver a strictly better interactive p99 than the
// class-blind configuration, and must not shed interactive load while it
// sheds batch.
func TestSLOSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run sweep with profile runs")
	}
	rows, _, err := SLOSweepParallel(1, true, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("want 2 rows, got %d", len(rows))
	}
	var blind, aware *SLOSweepRow
	for i := range rows {
		switch rows[i].Mode {
		case "class-blind":
			blind = &rows[i]
		case "class-aware":
			aware = &rows[i]
		}
	}
	if blind == nil || aware == nil {
		t.Fatalf("missing modes in %+v", rows)
	}
	if aware.InteractiveP99JCT >= blind.InteractiveP99JCT {
		t.Errorf("class-aware interactive p99 %.3fs not strictly better than class-blind %.3fs",
			aware.InteractiveP99JCT, blind.InteractiveP99JCT)
	}
	// Batch is shed before interactive: the class-aware run protects the
	// interactive budget entirely on this scenario.
	if aware.InteractiveShed != 0 {
		t.Errorf("class-aware shed %d interactive requests; batch must be shed first", aware.InteractiveShed)
	}
	if aware.BatchShed == 0 {
		t.Error("class-aware shed no batch under an overrunning burst; the scenario exercises nothing")
	}
	// Equal GPU-seconds up to makespan drift.
	lo, hi := blind.GPUSeconds, aware.GPUSeconds
	if lo > hi {
		lo, hi = hi, lo
	}
	if hi > 1.25*lo {
		t.Errorf("GPU-seconds diverge: blind %.1f vs aware %.1f", blind.GPUSeconds, aware.GPUSeconds)
	}
	for _, r := range rows {
		if r.Completed == 0 || r.InteractiveOffered == 0 || r.BatchOffered == 0 {
			t.Errorf("degenerate row %+v", r)
		}
	}
}
