package experiments

import "testing"

// TestAutoscaleSweep is the autoscale acceptance check: on the square-wave
// burst scenario the elastic pool must provision fewer GPU-seconds than
// the fixed peak-sized fleet at an equal-or-better shed rate, and the
// trough-sized fleet must demonstrate why scaling is needed (it sheds).
func TestAutoscaleSweep(t *testing.T) {
	rows, _, err := AutoscaleSweepParallel(1, true, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("want 3 rows, got %d", len(rows))
	}
	byMode := make(map[string]AutoscaleSweepRow)
	for _, r := range rows {
		t.Logf("%-15s meanJCT=%7.3fs p99=%7.3fs shed=%.3f gpu-s=%8.1f savings=%5.1f%% pool=[%d,%d] ups=%d downs=%d cold=%.2fs",
			r.Mode, r.MeanJCT, r.P99JCT, r.ShedRate, r.GPUSeconds, 100*r.GPUSavingsVsPeak,
			r.TroughInstances, r.PeakInstances, r.ScaleUps, r.ScaleDowns, r.ColdStartSeconds)
		byMode[r.Mode] = r
	}
	trough := byMode["fixed-1"]
	peak := byMode["fixed-4"]
	elastic := byMode["autoscale-1:4"]
	if elastic.Mode == "" || peak.Mode == "" || trough.Mode == "" {
		t.Fatalf("missing expected modes in %v", rows)
	}

	if elastic.GPUSeconds >= peak.GPUSeconds {
		t.Errorf("elastic pool GPU-seconds %.1f not below fixed peak fleet %.1f",
			elastic.GPUSeconds, peak.GPUSeconds)
	}
	if elastic.ShedRate > peak.ShedRate {
		t.Errorf("elastic shed rate %.3f worse than fixed peak fleet %.3f",
			elastic.ShedRate, peak.ShedRate)
	}
	if trough.ShedRate <= elastic.ShedRate {
		t.Errorf("trough-sized fleet shed rate %.3f not above elastic %.3f — burst scenario too easy",
			trough.ShedRate, elastic.ShedRate)
	}
	if elastic.ScaleUps == 0 || elastic.ScaleDowns == 0 {
		t.Errorf("elastic pool did not both grow and shrink: ups=%d downs=%d",
			elastic.ScaleUps, elastic.ScaleDowns)
	}
	if elastic.PeakInstances < 2 {
		t.Errorf("elastic pool peaked at %d instances; burst never stressed it", elastic.PeakInstances)
	}
}
