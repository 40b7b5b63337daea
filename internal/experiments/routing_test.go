package experiments

import (
	"math"
	"testing"

	"repro/internal/fleet"
	"repro/internal/router"
)

// TestRoutingSweep is the routing acceptance check: all three policies
// complete the small sweep, AffinityLoad beats the UserHash baseline on
// mean JCT under Zipf-skewed arrivals, and matches it (within noise) on
// the paper's uniform post-recommendation workload.
func TestRoutingSweep(t *testing.T) {
	rows, _, err := RoutingSweepParallel(1, true, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	byKey := make(map[string]RoutingSweepRow)
	for _, r := range rows {
		t.Logf("%-22s %-12s qps=%6.2f meanJCT=%7.3fs p99=%7.3fs hit=%.2f balance=%.2f rejected=%d",
			r.Dataset, r.Policy, r.QPS, r.MeanJCT, r.P99JCT, r.CacheHitRate, r.BalanceRatio, r.Rejected)
		byKey[r.Dataset+"/"+r.Policy] = r
		if r.Completed == 0 {
			t.Fatalf("%s/%s completed nothing", r.Dataset, r.Policy)
		}
	}
	if len(rows) != 6 {
		t.Fatalf("want 3 policies x 2 datasets = 6 rows, got %d", len(rows))
	}

	skewHash := byKey["zipf-skewed/userhash"]
	skewAff := byKey["zipf-skewed/affinity"]
	if skewAff.MeanJCT >= skewHash.MeanJCT {
		t.Errorf("skewed: affinity mean JCT %.3fs not below userhash %.3fs",
			skewAff.MeanJCT, skewHash.MeanJCT)
	}
	if !math.IsInf(skewHash.BalanceRatio, 1) && skewAff.BalanceRatio > skewHash.BalanceRatio {
		t.Errorf("skewed: affinity balance %.2f worse than userhash %.2f",
			skewAff.BalanceRatio, skewHash.BalanceRatio)
	}

	uniHash := byKey["post-recommendation/userhash"]
	uniAff := byKey["post-recommendation/affinity"]
	// "Within noise" on uniform arrivals: affinity must not be materially
	// worse than the baseline that the paper's cluster evaluation uses.
	if uniAff.MeanJCT > 1.25*uniHash.MeanJCT {
		t.Errorf("uniform: affinity mean JCT %.3fs more than 25%% above userhash %.3fs",
			uniAff.MeanJCT, uniHash.MeanJCT)
	}
}

// TestRoutingRunAdmission checks that a routed run surfaces admission
// control: a tight backlog bound on closed-loop load must shed requests
// and still account for every request.
func TestRoutingRunAdmission(t *testing.T) {
	sc, err := ScenarioByName("L4")
	if err != nil {
		t.Fatal(err)
	}
	ds := RoutingDatasets(3, true)[0]
	pol := router.LeastLoaded{}
	r, err := FleetRun(fleet.Spec{
		Model: sc.Model, GPU: sc.GPU, Instances: 2,
		Router: &router.Config{Policy: pol, MaxBacklogSeconds: 5},
	}, ds, Arrivals{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	rejected := r.Fleet.Rejected()
	if rejected == 0 {
		t.Fatal("closed-loop load under a 5s bound rejected nothing")
	}
	if len(r.Records)+rejected != len(ds.Requests) {
		t.Fatalf("completed %d + rejected %d != %d requests",
			len(r.Records), rejected, len(ds.Requests))
	}
	if adm := r.Fleet.Router().Admission().Policy(pol.Name()); adm.Rejected != int64(rejected) {
		t.Fatalf("admission tally %+v vs rejected %d", adm, rejected)
	}
}
