package autoscale

import (
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/hw"
	"repro/internal/model"
	"repro/internal/router"
	"repro/internal/sched"
	"repro/internal/sim"
)

func TestColdStartSeconds(t *testing.T) {
	m, g := model.Llama31_8B(), hw.L4()
	single := ColdStartSeconds(m, g, 1)
	want := float64(m.WeightBytes()) / float64(g.HostBWBytes)
	if single != want {
		t.Errorf("single-GPU cold start %g, want %g (weights/host-BW)", single, want)
	}
	if single < 0.5 || single > 5 {
		t.Errorf("8B-on-L4 cold start %gs outside plausible [0.5,5]s", single)
	}
	dual := ColdStartSeconds(m, g, 2)
	// Each GPU streams half the weights, plus the peer shard exchange.
	wantDual := want/2 + float64(m.WeightBytes())/2/float64(g.PeerBWBytes)
	if dual != wantDual {
		t.Errorf("dual-GPU cold start %g, want %g", dual, wantDual)
	}
}

// harness builds one sim + least-loaded router(+records sink) over
// PrefillOnly L4 instances and returns a factory wired the same way.
func harness(t *testing.T, s *sim.Sim, initial int) (*router.Router, func() (engine.Engine, error), *[]engine.Record) {
	t.Helper()
	return harnessWith(t, s, initial, router.Config{Policy: router.LeastLoaded{}})
}

// harnessWith is harness with the given router config.
func harnessWith(t *testing.T, s *sim.Sim, initial int, rcfg router.Config) (*router.Router, func() (engine.Engine, error), *[]engine.Record) {
	t.Helper()
	var rt *router.Router
	recs := &[]engine.Record{}
	cfg := engine.Config{
		Model: model.Llama31_8B(), GPU: hw.L4(), Sim: s, ProfileMaxLen: 4000,
		OnComplete: func(rec engine.Record) {
			if rt != nil {
				rt.Completed(rec)
			}
			*recs = append(*recs, rec)
		},
	}
	factory := func() (engine.Engine, error) {
		return core.New(cfg, core.Options{})
	}
	engines := make([]engine.Engine, initial)
	for i := range engines {
		e, err := factory()
		if err != nil {
			t.Fatal(err)
		}
		engines[i] = e
	}
	var err error
	rt, err = router.New(rcfg, engines...)
	if err != nil {
		t.Fatal(err)
	}
	return rt, factory, recs
}

func mkReq(id int64, user, tokens int) *sched.Request {
	toks := make([]uint64, tokens)
	for i := range toks {
		toks[i] = uint64(user)<<32 | uint64(i)
	}
	return &sched.Request{ID: id, UserID: user, Tokens: toks}
}

// TestScaleUpAndDown drives a burst (deep backlog) followed by a sparse
// tail and expects the pool to grow under the burst and drain back down
// during the tail.
func TestScaleUpAndDown(t *testing.T) {
	var s sim.Sim
	rt, factory, recs := harness(t, &s, 1)
	ctl, err := New(Config{
		MinInstances: 1, MaxInstances: 3,
		TickSeconds: 0.5, UpBacklogSeconds: 2, DownBacklogSeconds: 0.5,
		ColdStartSeconds: 1, CooldownSeconds: 2,
	}, &s, rt, factory)
	if err != nil {
		t.Fatal(err)
	}
	ctl.Start()

	// Burst: 40 x 3k-token requests at t=0 pile multi-second backlog on
	// the single instance.
	id := int64(0)
	s.At(0, func() {
		for i := 0; i < 40; i++ {
			id++
			if err := rt.Submit(mkReq(id, int(id), 3000)); err != nil {
				t.Errorf("submit %d: %v", id, err)
			}
		}
	})
	// Sparse tail keeps the tick loop alive long enough to observe the
	// scale-down after the burst clears.
	for ti := 0; ti < 30; ti++ {
		at := 60 + 2*float64(ti)
		s.At(at, func() {
			id++
			if err := rt.Submit(mkReq(id, int(id), 200)); err != nil {
				t.Errorf("tail submit %d: %v", id, err)
			}
		})
	}
	end := s.Run()

	if err := ctl.Err(); err != nil {
		t.Fatal(err)
	}
	if got := len(*recs); got != 70 {
		t.Fatalf("completed %d of 70 requests", got)
	}
	st := ctl.Stats()
	if st.ScaleUps == 0 {
		t.Error("burst caused no scale-ups")
	}
	if st.PeakInstances < 2 {
		t.Errorf("peak pool %d, want >= 2", st.PeakInstances)
	}
	if st.PeakInstances > 3 {
		t.Errorf("peak pool %d exceeds MaxInstances 3", st.PeakInstances)
	}
	if st.ScaleDowns == 0 {
		t.Error("idle tail caused no scale-downs")
	}
	if ctl.Size() >= st.PeakInstances {
		t.Errorf("pool did not shrink: size %d, peak %d", ctl.Size(), st.PeakInstances)
	}
	// GPU-seconds: bounded below by one always-on instance and above by
	// the peak pool running the whole time.
	gs := ctl.GPUSeconds(end)
	if gs < end || gs > float64(st.PeakInstances)*end {
		t.Errorf("GPU-seconds %g outside [%g, %g]", gs, end, float64(st.PeakInstances)*end)
	}
}

// TestBatchBacklogNeverScalesUp: the controller reads interactive-class
// signals, so a burst of pure batch work — backlog far past the trigger
// and batch sheds in the window — must never provision an instance, while
// the same burst labeled interactive must.
func TestBatchBacklogNeverScalesUp(t *testing.T) {
	burst := func(t *testing.T, class sched.Class) Stats {
		t.Helper()
		var s sim.Sim
		rt, factory, _ := harness(t, &s, 1)
		ctl, err := New(Config{
			MinInstances: 1, MaxInstances: 3,
			TickSeconds: 0.5, UpBacklogSeconds: 2,
			ColdStartSeconds: 1,
		}, &s, rt, factory)
		if err != nil {
			t.Fatal(err)
		}
		ctl.Start()
		s.At(0, func() {
			for i := int64(1); i <= 40; i++ {
				r := mkReq(i, int(i), 3000)
				r.Class = class
				if err := rt.Submit(r); err != nil {
					t.Errorf("submit %d: %v", i, err)
				}
			}
		})
		s.Run()
		if err := ctl.Err(); err != nil {
			t.Fatal(err)
		}
		return ctl.Stats()
	}
	if st := burst(t, sched.ClassBatch); st.ScaleUps != 0 {
		t.Errorf("pure batch backlog caused %d scale-ups; batch alone must never pay a cold start", st.ScaleUps)
	}
	if st := burst(t, sched.ClassInteractive); st.ScaleUps == 0 {
		t.Error("identical interactive backlog caused no scale-up; the signal is dead, not class-scoped")
	}
}

// shedsBatch is a least-loaded router config whose batch budget nothing
// fits: every batch request is shed for its class budget.
var shedsBatch = router.Config{
	Policy:              router.LeastLoaded{},
	ClassBacklogSeconds: map[sched.Class]float64{sched.ClassBatch: 1e-9},
}

// submitShed submits a batch request that the shedsBatch router must shed.
func submitShed(t *testing.T, rt *router.Router, id int64) {
	r := mkReq(id, int(id), 2000)
	r.Class = sched.ClassBatch
	if err := rt.Submit(r); err == nil {
		t.Errorf("batch request %d admitted over its budget", id)
	}
}

// TestBatchShedsDoNotEscalate: batch rejects under a tight batch budget
// must not trip the shed-escalation path that jumps the pool to its
// ceiling.
func TestBatchShedsDoNotEscalate(t *testing.T) {
	var s sim.Sim
	rt, factory, _ := harnessWith(t, &s, 1, shedsBatch)
	ctl, err := New(Config{
		MinInstances: 1, MaxInstances: 3,
		TickSeconds: 0.5, UpBacklogSeconds: 1000, // backlog can never trigger
		ColdStartSeconds: 1,
	}, &s, rt, factory)
	if err != nil {
		t.Fatal(err)
	}
	ctl.Start()
	s.At(0, func() {
		// A little live interactive work keeps ticks running while the
		// window fills.
		for i := int64(1); i <= 4; i++ {
			if err := rt.Submit(mkReq(i, int(i), 2000)); err != nil {
				t.Errorf("submit: %v", err)
			}
		}
		for i := int64(5); i < 55; i++ {
			submitShed(t, rt, i)
		}
	})
	s.Run()
	if err := ctl.Err(); err != nil {
		t.Fatal(err)
	}
	if st := ctl.Stats(); st.ScaleUps != 0 {
		t.Errorf("batch sheds escalated the pool: %d scale-ups", st.ScaleUps)
	}
}

// TestBatchShedsVetoScaleDown: batch sheds never provision capacity, but
// they must veto releasing it — draining while batch is actively being
// shed would only amplify the shed rate.
func TestBatchShedsVetoScaleDown(t *testing.T) {
	var s sim.Sim
	rt, factory, _ := harnessWith(t, &s, 2, shedsBatch)
	ctl, err := New(Config{
		MinInstances: 1, MaxInstances: 2,
		TickSeconds: 0.5, UpBacklogSeconds: 1000, DownBacklogSeconds: 0.5,
		ColdStartSeconds: 1, CooldownSeconds: 0.5,
	}, &s, rt, factory)
	if err != nil {
		t.Fatal(err)
	}
	ctl.Start()
	// Quiet backlog + a continuous stream of batch sheds: without the
	// veto, the idle pool drains to the floor tick after tick.
	for ti := 0; ti < 20; ti++ {
		shedID := int64(1000 + ti)
		s.At(0.1+0.5*float64(ti), func() { submitShed(t, rt, shedID) })
	}
	id := int64(0)
	for ti := 0; ti < 20; ti++ {
		at := 0.2 + 0.5*float64(ti)
		s.At(at, func() {
			id++
			if err := rt.Submit(mkReq(id, int(id), 50)); err != nil {
				t.Errorf("submit: %v", err)
			}
		})
	}
	s.Run()
	if err := ctl.Err(); err != nil {
		t.Fatal(err)
	}
	if st := ctl.Stats(); st.ScaleDowns != 0 {
		t.Errorf("pool drained %d times while batch was being shed", st.ScaleDowns)
	}
}

// TestColdStartDelaysRoutability checks a scaled-up instance only joins
// the routable set after the cold-start delay has elapsed.
func TestColdStartDelaysRoutability(t *testing.T) {
	var s sim.Sim
	rt, factory, _ := harness(t, &s, 1)
	const cold = 5.0
	ctl, err := New(Config{
		MinInstances: 1, MaxInstances: 2,
		TickSeconds: 0.25, UpBacklogSeconds: 1,
		ColdStartSeconds: cold,
	}, &s, rt, factory)
	if err != nil {
		t.Fatal(err)
	}
	ctl.Start()
	s.At(0, func() {
		for i := int64(1); i <= 30; i++ {
			if err := rt.Submit(mkReq(i, int(i), 3000)); err != nil {
				t.Errorf("submit: %v", err)
			}
		}
	})
	// Find when the second instance becomes routable.
	joined := -1.0
	for probe := 0.25; probe < 40; probe += 0.25 {
		probe := probe
		s.At(probe, func() {
			if joined < 0 && rt.Routable() > 1 {
				joined = s.Now()
			}
		})
	}
	s.Run()
	if err := ctl.Err(); err != nil {
		t.Fatal(err)
	}
	if ctl.Stats().ScaleUps == 0 {
		t.Fatal("no scale-up happened")
	}
	if joined < 0 {
		t.Fatal("second instance never became routable")
	}
	// The first tick can decide at 0.25s at the earliest, so the join
	// cannot precede cold start + first possible decision.
	if joined < cold {
		t.Errorf("instance routable at %gs, before the %gs cold start", joined, cold)
	}
}

// TestNeverDrainsLastRoutable checks a cold-starting addition cannot
// license draining the only routable instance: with a cooldown shorter
// than the cold start, the controller must keep routable >= MinInstances
// at every instant, not just in the target count.
func TestNeverDrainsLastRoutable(t *testing.T) {
	var s sim.Sim
	rt, factory, _ := harness(t, &s, 1)
	ctl, err := New(Config{
		MinInstances: 1, MaxInstances: 2,
		TickSeconds: 0.25, UpBacklogSeconds: 1, DownBacklogSeconds: 0.5,
		ColdStartSeconds: 5, CooldownSeconds: 0.5,
	}, &s, rt, factory)
	if err != nil {
		t.Fatal(err)
	}
	ctl.Start()
	// A short burst triggers a scale-up, then completes well before the
	// 5s cold start lands; the quiet gap drops the mean backlog to zero
	// while pendingAdds = 1, which is exactly when a target-count drain
	// guard would release the only routable instance.
	s.At(0, func() {
		for i := int64(1); i <= 6; i++ {
			if err := rt.Submit(mkReq(i, int(i), 2500)); err != nil {
				t.Errorf("submit: %v", err)
			}
		}
	})
	// Arrivals resume inside the cold-start window, where a bad drain
	// leaves zero routable instances.
	for ti := 0; ti < 8; ti++ {
		at := 4 + 0.15*float64(ti)
		id := int64(100 + ti)
		s.At(at, func() {
			if rt.Routable() == 0 {
				t.Errorf("no routable instances at t=%g", s.Now())
			}
			if err := rt.Submit(mkReq(id, int(id), 100)); err != nil {
				t.Errorf("submit at t=%g: %v", s.Now(), err)
			}
		})
	}
	s.Run()
	if err := ctl.Err(); err != nil {
		t.Fatal(err)
	}
	if ctl.Stats().ScaleUps == 0 {
		t.Fatal("scenario never scaled up; the drain window was not exercised")
	}
}

// TestReviveDrainingOnScaleUp checks a scale-up prefers undraining a
// still-warm draining instance over paying a cold start: capacity comes
// back instantly and no new engine is provisioned.
func TestReviveDrainingOnScaleUp(t *testing.T) {
	var s sim.Sim
	rt, factory, _ := harness(t, &s, 2)
	ctl, err := New(Config{
		MinInstances: 1, MaxInstances: 2,
		TickSeconds: 0.25, UpBacklogSeconds: 1,
		ColdStartSeconds: 50, // a cold start would dominate the run
	}, &s, rt, factory)
	if err != nil {
		t.Fatal(err)
	}
	ctl.Start()
	infos := rt.InstanceInfos()
	s.At(0, func() {
		if err := rt.Drain(infos[1].ID); err != nil {
			t.Errorf("drain: %v", err)
		}
		// Load returns immediately: the burst must revive the drained
		// instance rather than cold-start a third engine.
		for i := int64(1); i <= 20; i++ {
			if err := rt.Submit(mkReq(i, int(i), 2500)); err != nil {
				t.Errorf("submit: %v", err)
			}
		}
	})
	revivedAt := -1.0
	for probe := 0.25; probe < 10; probe += 0.25 {
		probe := probe
		s.At(probe, func() {
			if revivedAt < 0 && rt.Routable() == 2 {
				revivedAt = s.Now()
			}
		})
	}
	end := s.Run()
	if err := ctl.Err(); err != nil {
		t.Fatal(err)
	}
	st := ctl.Stats()
	if st.Revives == 0 {
		t.Fatalf("scale-up did not revive the draining instance: %+v", st)
	}
	if st.ScaleUps != 0 {
		t.Errorf("cold-started %d new instances with a warm one draining", st.ScaleUps)
	}
	if revivedAt < 0 || revivedAt > 1 {
		t.Errorf("revival at t=%g; want within the first control ticks (no cold start)", revivedAt)
	}
	if end > 40 {
		t.Errorf("run took %gs; a %gs cold start leaked in", end, 50.0)
	}
}

// TestDrainGraceful checks a draining instance finishes its in-flight
// work before release and never receives new requests.
func TestDrainGraceful(t *testing.T) {
	var s sim.Sim
	rt, _, recs := harness(t, &s, 2)
	infos := rt.InstanceInfos()
	if len(infos) != 2 {
		t.Fatal("want 2 instances")
	}
	// Load both instances, then drain instance 1.
	s.At(0, func() {
		for i := int64(1); i <= 8; i++ {
			if err := rt.Submit(mkReq(i, int(i), 2000)); err != nil {
				t.Errorf("submit: %v", err)
			}
		}
		if err := rt.Drain(infos[1].ID); err != nil {
			t.Errorf("drain: %v", err)
		}
		// New work after the drain must all land on instance 0.
		for i := int64(9); i <= 12; i++ {
			if err := rt.Submit(mkReq(i, int(i), 2000)); err != nil {
				t.Errorf("post-drain submit: %v", err)
			}
		}
	})
	s.Run()
	if got := len(*recs); got != 12 {
		t.Fatalf("completed %d of 12", got)
	}
	drained, err := rt.Drained(infos[1].ID)
	if err != nil || !drained {
		t.Fatalf("instance %d not drained at end (err %v)", infos[1].ID, err)
	}
	if err := rt.Remove(infos[1].ID); err != nil {
		t.Fatalf("remove drained instance: %v", err)
	}
	if rt.Size() != 1 || rt.Routable() != 1 {
		t.Errorf("size %d routable %d after removal, want 1/1", rt.Size(), rt.Routable())
	}
}
