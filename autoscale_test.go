package prefillonly

import (
	"testing"
	"time"

	"repro/internal/autoscale"
)

// TestSimulationAutoscale drives the elastic pool end to end through the
// public facade: a square-wave burst grows the pool from its floor, the
// trough drains it back, and every request is accounted for.
func TestSimulationAutoscale(t *testing.T) {
	s, err := NewSimulation(SimulationConfig{
		GPUs: 4, MaxInputLen: 5000,
		RoutingPolicy:     "affinity",
		MaxBacklogSeconds: 20,
		Autoscale:         &AutoscaleConfig{MinInstances: 1, UpBacklogSeconds: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctl := s.Autoscaler()
	if ctl == nil {
		t.Fatal("no autoscaler")
	}
	if ctl.Size() != 1 {
		t.Fatalf("initial pool %d, want the floor 1", ctl.Size())
	}

	ds := NewSkewed(SkewedConfig{Users: 16, Requests: 96, ProfileMean: 2500,
		ProfileStd: 500, ProfileMin: 1500, ProfileMax: 4000, Seed: 3})
	rate := SquareWaveRate(1, 12, 30, 0.4)
	arrivals, err := AssignOpenLoopArrivals(ds, rate, 12, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range arrivals {
		s.SubmitAt(a.Time, a.Req)
	}
	recs := s.Run()
	if err := ctl.Err(); err != nil {
		t.Fatal(err)
	}
	if len(recs)+s.Rejected() != 96 {
		t.Fatalf("completed %d + rejected %d != 96", len(recs), s.Rejected())
	}
	st := ctl.Stats()
	if st.ScaleUps == 0 || st.PeakInstances < 2 {
		t.Fatalf("burst did not grow the pool: %+v", st)
	}
	if st.PeakInstances > 4 {
		t.Fatalf("pool exceeded the GPUs ceiling: %+v", st)
	}
	if gs := ctl.GPUSeconds(s.Now()); gs <= 0 || gs > 4*s.Now() {
		t.Fatalf("GPU-seconds %g outside (0, %g]", gs, 4*s.Now())
	}

	// The config guards: autoscaling requires a routing policy, and the
	// caller's config must not be mutated by defaulting.
	acfg := &AutoscaleConfig{MinInstances: 1}
	if _, err := NewSimulation(SimulationConfig{Autoscale: acfg}); err == nil {
		t.Fatal("Autoscale without RoutingPolicy accepted")
	}
	if _, err := NewSimulation(SimulationConfig{
		GPUs: 2, MaxInputLen: 5000, RoutingPolicy: "affinity", Autoscale: acfg,
	}); err != nil {
		t.Fatal(err)
	}
	if acfg.MaxInstances != 0 || acfg.Model != nil {
		t.Fatalf("caller's AutoscaleConfig mutated: %+v", acfg)
	}
}

// TestColdStartCatalogPricing pins the public cold-start helper to the
// catalog arithmetic.
func TestColdStartCatalogPricing(t *testing.T) {
	m, g := Llama31_8B(), L4()
	got := ColdStartSeconds(m, g, 1)
	want := float64(m.WeightBytes()) / float64(g.HostBWBytes)
	if got != want {
		t.Fatalf("cold start %g, want weights/hostBW = %g", got, want)
	}
}

// TestObserversDrainWithoutPerturbing runs the 32-request routing
// workload under the trace sampler and the time-series collector: each
// alone on an autoscaled pool, and both on a fixed fleet. The autoscaler
// and the observers re-arm only while other events are pending, and
// observer ticks do not count as pending, so each run drains. Its records,
// and its autoscaler's Stats when it autoscales, equal those of the same
// run without observers.
func TestObserversDrainWithoutPerturbing(t *testing.T) {
	type outcome struct {
		recs  []recordKey
		scale autoscale.Stats
	}
	run := func(t *testing.T, autoscaled bool, spans int, window float64) outcome {
		cfg := SimulationConfig{
			GPUs: 4, MaxInputLen: 18000, RoutingPolicy: "affinity",
			TraceSpans: spans, TimeseriesSeconds: window,
		}
		if autoscaled {
			cfg.Autoscale = &AutoscaleConfig{MinInstances: 1, MaxInstances: 4}
		}
		s, err := NewSimulation(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ds := NewPostRecommendation(PostRecommendationConfig{Users: 4, PostsPerUser: 8, Seed: 21})
		if err := s.SubmitDataset(ds, 8, 5); err != nil {
			t.Fatal(err)
		}
		done := make(chan []Record, 1)
		go func() { done <- s.Run() }()
		select {
		case recs := <-done:
			var out outcome
			out.recs = recordKeys(t, recs)
			if ctl := s.Autoscaler(); ctl != nil {
				out.scale = ctl.Stats()
			}
			return out
		case <-time.After(time.Minute):
			t.Fatalf("autoscaled %v, %d trace spans, %gs windows: Run did not return", autoscaled, spans, window)
		}
		return outcome{}
	}
	for _, tc := range []struct {
		name       string
		autoscaled bool
		spans      int
		window     float64
	}{
		{"autoscaled-traced", true, 1000, 0},
		{"autoscaled-timeseries", true, 0, 1},
		{"fixed-traced-timeseries", false, 1000, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			plain := run(t, tc.autoscaled, 0, 0)
			if tc.autoscaled && plain.scale.ScaleUps == 0 {
				t.Fatalf("the pool never scaled: %+v", plain.scale)
			}
			observed := run(t, tc.autoscaled, tc.spans, tc.window)
			requireSameRecords(t, tc.name, plain.recs, observed.recs)
			if observed.scale != plain.scale {
				t.Fatalf("autoscaler stats %+v, without observers %+v", observed.scale, plain.scale)
			}
		})
	}
}
