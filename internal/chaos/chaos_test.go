package chaos_test

import (
	"testing"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/hw"
	"repro/internal/model"
	"repro/internal/router"
	"repro/internal/sched"
	"repro/internal/sim"
)

// cluster builds n PrefillOnly instances on one sim behind a router.
func cluster(t *testing.T, s *sim.Sim, n int) *router.Router {
	t.Helper()
	var rt *router.Router
	cfg := engine.Config{
		Model: model.Llama31_8B(), GPU: hw.L4(), Sim: s, ProfileMaxLen: 4000,
		OnComplete: func(rec engine.Record) { rt.Completed(rec) },
	}
	engines := make([]engine.Engine, n)
	for i := range engines {
		e, err := core.New(cfg, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		engines[i] = e
	}
	var err error
	rt, err = router.New(router.Config{}, engines...)
	if err != nil {
		t.Fatal(err)
	}
	return rt
}

func mkReq(id int64, user, tokens int) *sched.Request {
	toks := make([]uint64, tokens)
	for i := range toks {
		toks[i] = uint64(user)<<32 | uint64(i)
	}
	return &sched.Request{ID: id, UserID: user, Tokens: toks}
}

// TestDisabledInjectorIsNil: a config with no fault kind yields the nil
// injector, whose every method is an inert no-op — it schedules nothing,
// so a wired failure-free run is the same event sequence as an unwired
// one.
func TestDisabledInjectorIsNil(t *testing.T) {
	var s sim.Sim
	rt := cluster(t, &s, 2)
	inj := chaos.New(chaos.Config{Seed: 7}, &s, rt, chaos.Options{})
	if inj != nil {
		t.Fatalf("New with no fault kind returned %v, want nil", inj)
	}
	if inj.Enabled() {
		t.Error("nil injector reports Enabled")
	}
	before := s.Pending()
	inj.Start()
	if got := s.Pending(); got != before {
		t.Fatalf("nil Start scheduled events: pending %d -> %d", before, got)
	}
	if st := inj.Stats(); st != (chaos.Stats{}) {
		t.Fatalf("nil Stats() = %+v, want zero", st)
	}
}

// TestNilInjectorZeroAlloc pins the disabled injector's cost on the
// event hot path: consulting it per event (the wiring pattern) must not
// allocate, so chaos support is free when it is off.
func TestNilInjectorZeroAlloc(t *testing.T) {
	var inj *chaos.Injector
	allocs := testing.AllocsPerRun(1000, func() {
		inj.Start()
		_ = inj.Enabled()
		_ = inj.Stats()
	})
	if allocs != 0 {
		t.Fatalf("nil injector allocated %.1f times per event, want 0", allocs)
	}
}

// chaosStats runs a faulted scenario once and returns the injector's
// stats plus the count of completions.
func chaosStats(t *testing.T, cfg chaos.Config) (chaos.Stats, int, int) {
	t.Helper()
	var s sim.Sim
	rt := cluster(t, &s, 3)
	shed := 0
	inj := chaos.New(cfg, &s, rt, chaos.Options{
		OnShed: func(r *sched.Request, rej *router.RejectError) {
			if rej.Reason == "" {
				t.Errorf("shed of request %d carries no reason", r.ID)
			}
			shed++
		},
	})
	if !inj.Enabled() {
		t.Fatal("injector disabled")
	}
	for i := 0; i < 48; i++ {
		if err := rt.Submit(mkReq(int64(i+1), i%6, 2000)); err != nil {
			t.Fatal(err)
		}
	}
	inj.Start()
	s.Run()
	return inj.Stats(), shed, rt.InFlight()
}

// TestFaultsReplayByteIdentically: the injector is a pure function of
// its config — two runs of the same seeded scenario produce identical
// fault schedules, orphan fates and recovery stats.
func TestFaultsReplayByteIdentically(t *testing.T) {
	cfg := chaos.Config{
		Seed:           5,
		CrashRate:      0.05,
		StragglerRate:  0.05,
		PreemptRate:    0.02,
		HorizonSeconds: 40,
		RetryBudget:    1,
	}
	st1, shed1, _ := chaosStats(t, cfg)
	st2, shed2, _ := chaosStats(t, cfg)
	if st1 != st2 {
		t.Fatalf("same config, different stats:\nrun 1: %+v\nrun 2: %+v", st1, st2)
	}
	if shed1 != shed2 {
		t.Fatalf("same config, different shed counts: %d vs %d", shed1, shed2)
	}
	if st1.Faults() == 0 {
		t.Fatal("scenario injected no faults; raise the rates or the horizon")
	}
}

// TestOrphanAccounting: every orphaned request is either re-admitted or
// shed, and every shed splits into retry-budget vs re-admission-reject.
func TestOrphanAccounting(t *testing.T) {
	cfg := chaos.Config{
		Seed:           11,
		CrashRate:      0.2,
		HorizonSeconds: 30,
		RetryBudget:    1,
	}
	st, shed, inflight := chaosStats(t, cfg)
	if st.Crashes == 0 || st.Orphaned == 0 {
		t.Fatalf("scenario produced no orphans: %+v", st)
	}
	if st.Orphaned != st.Rerouted+st.Shed {
		t.Fatalf("orphaned %d != rerouted %d + shed %d", st.Orphaned, st.Rerouted, st.Shed)
	}
	if st.Shed != st.ShedRetries+st.ShedRejected {
		t.Fatalf("shed %d != retries %d + rejected %d", st.Shed, st.ShedRetries, st.ShedRejected)
	}
	if uint64(shed) != st.Shed {
		t.Fatalf("OnShed fired %d times, stats say %d", shed, st.Shed)
	}
	if inflight != 0 {
		t.Fatalf("in-flight %d after the run drained", inflight)
	}
}

// TestStartAfterHorizonStopSchedulesNothing: a stream whose next gap
// passed HorizonSeconds has stopped for good. A later Start — which a
// fleet issues on every submit — must not revive it with a fresh gap
// that lands before the horizon, so it schedules nothing and the stats
// stay as the horizon left them.
func TestStartAfterHorizonStopSchedulesNothing(t *testing.T) {
	var s sim.Sim
	rt := cluster(t, &s, 2)
	inj := chaos.New(chaos.Config{
		Seed:             3,
		StragglerRate:    1,
		StragglerSeconds: 1e-3,
		HorizonSeconds:   50,
	}, &s, rt, chaos.Options{})
	inj.Start()
	s.Run()
	stopped := inj.Stats()
	if stopped.Stragglers == 0 {
		t.Fatal("scenario injected no faults before the horizon")
	}
	if now := s.Now(); now >= 50 {
		t.Fatalf("stream stopped at %g, past the horizon; the check needs an earlier stop", now)
	}
	for i := 0; i < 100; i++ {
		inj.Start()
	}
	if n := s.Pending(); n != 0 {
		t.Fatalf("Start after the horizon stop scheduled %d events", n)
	}
	s.Run()
	if st := inj.Stats(); st != stopped {
		t.Fatalf("stats moved after the horizon stop:\nbefore %+v\nafter  %+v", stopped, st)
	}
}
