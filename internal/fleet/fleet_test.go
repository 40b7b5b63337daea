package fleet

import (
	"testing"

	"repro/internal/autoscale"
	"repro/internal/chaos"
	"repro/internal/hw"
	"repro/internal/model"
	"repro/internal/router"
	"repro/internal/sched"
)

// TestReplaceCyclesStayBounded takes an autoscaled fleet through several
// crash-and-replace cycles. The fleet holds only live instances, so
// Engines() never exceeds the pool ceiling, and the router's cumulative
// cache statistics never drop as crashed instances are released.
func TestReplaceCyclesStayBounded(t *testing.T) {
	const (
		maxInstances = 3
		requests     = 240
		qps          = 4.0
		horizon      = requests / qps
	)
	f, err := New(Spec{
		Model: model.Llama31_8B(), GPU: hw.L4(), ProfileMaxLen: 2000,
		Router:    &router.Config{Policy: router.AffinityLoad{}},
		Autoscale: &autoscale.Config{MinInstances: 2, MaxInstances: maxInstances},
		Chaos:     chaos.Config{Seed: 5, CrashRate: 8 / horizon, HorizonSeconds: horizon},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < requests; i++ {
		user := i % 8
		toks := make([]uint64, 1000)
		for j := range toks {
			toks[j] = uint64(user)<<32 | uint64(j)
		}
		toks[len(toks)-1] = uint64(i) // a shared profile, a distinct tail
		f.SubmitAt(float64(i)/qps, &sched.Request{ID: int64(i + 1), UserID: user, Tokens: toks, ArrivalTime: float64(i) / qps})
	}
	var lookups int64
	checks := 0
	var check func(any)
	check = func(any) {
		checks++
		if n := len(f.Engines()); n > maxInstances {
			t.Errorf("t=%g: fleet holds %d instances, ceiling %d", f.Clock().Now(), n, maxInstances)
		}
		l := f.Router().CacheStats().LookupTokens
		if l < lookups {
			t.Errorf("t=%g: cumulative lookups fell from %d to %d", f.Clock().Now(), lookups, l)
		}
		lookups = l
		if f.Clock().Now() < horizon {
			f.Clock().AfterFunc(0.25, check, nil)
		}
	}
	f.Clock().AfterFunc(0.25, check, nil)
	f.Run()
	if err := f.Check(requests); err != nil {
		t.Fatal(err)
	}
	crashes, scaleUps := f.Chaos().Stats().Crashes, f.Autoscaler().Stats().ScaleUps
	if crashes < 3 || scaleUps < 3 {
		t.Fatalf("%d crashes and %d scale-ups: the scenario needs several replace cycles", crashes, scaleUps)
	}
	if lookups == 0 || checks < int(horizon/0.25) {
		t.Fatalf("%d checks saw %d lookups", checks, lookups)
	}
}
