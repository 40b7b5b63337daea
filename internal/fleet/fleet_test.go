package fleet

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/autoscale"
	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/hw"
	"repro/internal/kvcache"
	"repro/internal/model"
	"repro/internal/router"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/timeseries"
	"repro/internal/trace"
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

// stepRecord is the part of a completion record the RunUntil oracle
// compares.
type stepRecord struct {
	ID            int64
	Start, Finish float64
	CachedTokens  int
	Instance      string
}

// steppingFleet builds one of the RunUntil oracle's fleets on the given
// shard count with its arrivals scheduled: a routed fleet, or an
// autoscaled one whose instances crash and get replaced.
func steppingFleet(t *testing.T, autoscaled bool, shards int, recs *[]stepRecord) *Fleet {
	t.Helper()
	const requests, qps = 120, 4.0
	spec := Spec{
		Model: model.Llama31_8B(), GPU: hw.L4(), ProfileMaxLen: 2000,
		Instances: 3,
		Router:    &router.Config{Policy: router.AffinityLoad{}},
		Shards:    shards,
		OnComplete: func(r engine.Record) {
			*recs = append(*recs, stepRecord{r.Req.ID, r.Start, r.Finish, r.CachedTokens, r.Instance})
		},
	}
	if autoscaled {
		const horizon = requests / qps
		spec.Autoscale = &autoscale.Config{MinInstances: 2, MaxInstances: 3}
		spec.Chaos = chaos.Config{Seed: 5, CrashRate: 6 / horizon, HorizonSeconds: horizon}
	}
	f, err := New(spec)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < requests; i++ {
		user := i % 8
		toks := make([]uint64, 600+100*(i%5))
		for j := range toks {
			toks[j] = uint64(user)<<32 | uint64(j)
		}
		toks[len(toks)-1] = uint64(i) // a shared profile, a distinct tail
		at := float64(i) / qps
		f.SubmitAt(at, &sched.Request{ID: int64(i + 1), UserID: user, Tokens: toks, ArrivalTime: at})
	}
	return f
}

// TestRunUntilMatchesRun steps fleets with RunUntil on 0, 2 and 4 shards
// and requires the completion records of one serial Run, in order: with
// deadlines on the reference run's event times, between them (a 0.013 s
// step) and past several at once (a 0.5 s step).
func TestRunUntilMatchesRun(t *testing.T) {
	for _, tc := range []struct {
		name       string
		autoscaled bool
	}{{"routed", false}, {"autoscaled-crashes", true}} {
		t.Run(tc.name, func(t *testing.T) {
			var ref []stepRecord
			f := steppingFleet(t, tc.autoscaled, 0, &ref)
			f.Run()
			if err := f.Check(120); err != nil {
				t.Fatal(err)
			}
			if tc.autoscaled && f.Chaos().Stats().Crashes == 0 {
				t.Fatal("no crashes: the scenario must exercise fault recovery")
			}
			var onEvents []float64
			for _, r := range ref {
				onEvents = append(onEvents, r.Start, r.Finish)
			}
			slices.Sort(onEvents)
			onEvents = slices.Compact(onEvents)
			for _, sc := range []struct {
				name      string
				deadlines []float64
				step      float64
			}{{"on-events", onEvents, 0.5}, {"between", nil, 0.013}, {"past", nil, 0.5}} {
				for _, shards := range []int{0, 2, 4} {
					var got []stepRecord
					f := steppingFleet(t, tc.autoscaled, shards, &got)
					for _, d := range sc.deadlines {
						f.RunUntil(d)
						if now := f.Clock().Now(); now != d {
							t.Fatalf("%s, %d shards: clock at %v after RunUntil(%v)", sc.name, shards, now, d)
						}
					}
					for d := f.Clock().Now(); f.Clock().Pending() > 0; {
						d += sc.step
						f.RunUntil(d)
					}
					if err := f.Check(120); err != nil {
						t.Fatalf("%s, %d shards: %v", sc.name, shards, err)
					}
					if len(got) != len(ref) {
						t.Fatalf("%s, %d shards: %d records, Run gives %d", sc.name, shards, len(got), len(ref))
					}
					for i := range ref {
						if got[i] != ref[i] {
							t.Fatalf("%s, %d shards: record %d is %+v, Run gives %+v", sc.name, shards, i, got[i], ref[i])
						}
					}
				}
			}
		})
	}
}

// TestCheckRejectsMalformedRecords feeds the completion sink one record
// at a time. A record that starts before it arrives, finishes before it
// starts or caches tokens outside [0, its input] must fail Check; a
// well-formed one must not.
func TestCheckRejectsMalformedRecords(t *testing.T) {
	for _, tc := range []struct {
		name string
		rec  engine.Record
		bad  bool
	}{
		{"well-formed", engine.Record{Arrival: 1, Start: 1.5, Finish: 2, CachedTokens: 4}, false},
		{"start-before-arrival", engine.Record{Arrival: 1, Start: 0.5, Finish: 2}, true},
		{"finish-before-start", engine.Record{Arrival: 1, Start: 2, Finish: 1.5}, true},
		{"cached-beyond-input", engine.Record{Arrival: 1, Start: 1, Finish: 2, CachedTokens: 5}, true},
		{"negative-cached", engine.Record{Arrival: 1, Start: 1, Finish: 2, CachedTokens: -1}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f, err := New(Spec{Model: model.Llama31_8B(), GPU: hw.L4(), ProfileMaxLen: 2000, Instances: 1})
			if err != nil {
				t.Fatal(err)
			}
			rec := tc.rec
			rec.Req = &sched.Request{ID: 7, Tokens: make([]uint64, 4)}
			f.complete(rec)
			if err := f.Check(1); (err != nil) != tc.bad {
				t.Fatalf("Check = %v, want an error: %v", err, tc.bad)
			}
		})
	}
}

// TestCheckRejectsLeakedCacheHolds drains a routed fleet and then leaks a
// pin or a reservation on one instance's prefix cache, as an engine that
// lost a release would: Check must fail until the hold is released.
func TestCheckRejectsLeakedCacheHolds(t *testing.T) {
	for _, tc := range []struct {
		name string
		hold func(t *testing.T, c *kvcache.Manager, now float64) (release func())
	}{
		{"pin", func(t *testing.T, c *kvcache.Manager, now float64) func() {
			chain := &kvcache.Chain{Own: kvcache.BlockHashes(make([]uint64, 4*c.BlockTokens()), c.BlockTokens())}
			c.InsertH(chain, now)
			n, release := c.PinH(chain, now)
			if n == 0 {
				t.Fatal("the pin hit nothing")
			}
			return release
		}},
		{"reservation", func(t *testing.T, c *kvcache.Manager, now float64) func() {
			_, release := c.Reserve(c.CapacityBytes() / 2)
			return release
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var recs []stepRecord
			f := steppingFleet(t, false, 0, &recs)
			f.Run()
			if err := f.Check(120); err != nil {
				t.Fatal(err)
			}
			release := tc.hold(t, f.Engines()[1].Cache(), f.Clock().Now())
			if err := f.Check(120); err == nil || !strings.Contains(err.Error(), "kvcache") {
				t.Fatalf("Check = %v with a leaked %s, want the cache's error", err, tc.name)
			}
			release()
			if err := f.Check(120); err != nil {
				t.Fatalf("after the release: %v", err)
			}
		})
	}
}

// TestSubmitRoutesByUser drives a §7.1 fleet end to end: user 0's two
// requests share an instance and queue behind each other, while user 1's
// request runs on the other instance without waiting.
func TestSubmitRoutesByUser(t *testing.T) {
	recs := map[int64]engine.Record{}
	f, err := New(Spec{
		Engine: PagedAttention, Model: model.Llama31_8B(), GPU: hw.L4(),
		ProfileMaxLen: 2000, Instances: 2,
		OnComplete: func(r engine.Record) { recs[r.Req.ID] = r },
	})
	if err != nil {
		t.Fatal(err)
	}
	mk := func(id int64, user int) *sched.Request {
		toks := make([]uint64, 1000)
		for i := range toks {
			toks[i] = uint64(user)<<32 | uint64(i)
		}
		return &sched.Request{ID: id, UserID: user, Tokens: toks}
	}
	f.SubmitAt(0, mk(1, 0))
	f.SubmitAt(0, mk(2, 1))
	f.SubmitAt(0, mk(3, 0))
	f.RunUntil(0)
	// The router prices a §7.1 fleet's queues, so its gauges see them.
	if g := f.Gauges(0); g.QueuedRequests != 3 || g.BacklogSeconds <= 0 {
		t.Errorf("gauges after the arrivals: %d queued requests, %gs backlog", g.QueuedRequests, g.BacklogSeconds)
	}
	f.Run()
	if err := f.Check(3); err != nil {
		t.Fatal(err)
	}
	if recs[2].Start != 0 {
		t.Errorf("user 1's request waited until %g behind user 0's", recs[2].Start)
	}
	if recs[3].Start < recs[1].Finish {
		t.Errorf("user 0's second request started at %g, before its first finished at %g",
			recs[3].Start, recs[1].Finish)
	}
}

// TestNewRejectsEmptyFleet: a fleet rejects an empty instance list, an
// unknown engine, and chaos on the §7.1 fleet, whose assignment assumes a
// fixed pool; the spec is validated before any profile run.
func TestNewRejectsEmptyFleet(t *testing.T) {
	base := Spec{Model: model.Llama31_8B(), GPU: hw.L4(), ProfileMaxLen: 2000}
	if _, err := New(base); err == nil {
		t.Error("zero-instance fleet accepted")
	}
	bad := base
	bad.Instances, bad.Engine = 1, "warp-drive"
	if _, err := New(bad); err == nil {
		t.Error("unknown engine accepted")
	}
	bad = base
	bad.Instances = 1
	bad.Chaos.CrashRate = 1
	if _, err := New(bad); err == nil {
		t.Error("chaos without a router accepted")
	}
}

// TestNewRejectsChaosOnParallelEngines: the TP and PP engines have no Kill
// and no speed factor, so a fault injector over them would count crashes
// that never happen. New rejects Chaos on them and accepts it on the
// three serial engines.
func TestNewRejectsChaosOnParallelEngines(t *testing.T) {
	for _, eng := range []Engine{PrefillOnly, PagedAttention, ChunkedPrefill, TensorParallel, PipelineParallel} {
		_, err := New(Spec{
			Engine: eng, Model: model.Llama31_8B(), GPU: hw.L4(), ProfileMaxLen: 2000,
			Instances: 2,
			Router:    &router.Config{Policy: router.LeastLoaded{}},
			Chaos:     chaos.Config{Seed: 3, CrashRate: 1, StragglerRate: 1, PreemptRate: 1, HorizonSeconds: 10},
		})
		parallel := eng == TensorParallel || eng == PipelineParallel
		switch {
		case parallel && err == nil:
			t.Errorf("%s: Chaos accepted on an engine that cannot be faulted", eng)
		case parallel && !strings.Contains(err.Error(), string(eng)):
			t.Errorf("%s: error %q does not name the engine", eng, err)
		case !parallel && err != nil:
			t.Errorf("%s: %v", eng, err)
		}
	}
}

// offerProfiles schedules n requests at qps, users round-robin over eight
// shared 600–1,000-token profiles with a distinct last token; every third
// request is batch-class.
func offerProfiles(f *Fleet, n int, qps float64) {
	for i := 0; i < n; i++ {
		user := i % 8
		toks := make([]uint64, 600+100*(i%5))
		for j := range toks {
			toks[j] = uint64(user)<<32 | uint64(j)
		}
		toks[len(toks)-1] = uint64(i)
		at := float64(i) / qps
		r := &sched.Request{ID: int64(i + 1), UserID: user, Tokens: toks, ArrivalTime: at}
		if i%3 == 2 {
			r.Class = sched.ClassBatch
		}
		f.SubmitAt(at, r)
	}
}

// TestSurfacesReconcile runs a routed, autoscaled, fault-injected batch
// fleet with the tracer, its gauge sampler and the time-series collector
// on, under each fault kind and all three, over several seeds. Each fact
// that more than one surface counts must read the same on all of them.
func TestSurfacesReconcile(t *testing.T) {
	const (
		requests = 200
		qps      = 10.0
		horizon  = requests / qps
		rate     = 6 / horizon
	)
	var rerouted, orphansShed uint64
	var routerShed int64
	for _, mode := range []struct {
		name  string
		chaos chaos.Config
	}{
		{"crash", chaos.Config{CrashRate: rate}},
		{"preempt", chaos.Config{PreemptRate: rate, NoticeSeconds: 4}},
		{"straggler", chaos.Config{StragglerRate: rate, StragglerSeconds: 4}},
		{"all", chaos.Config{CrashRate: rate, PreemptRate: rate, NoticeSeconds: 4,
			StragglerRate: rate, StragglerSeconds: 4}},
	} {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", mode.name, seed), func(t *testing.T) {
				rec := trace.New(64)
				ts := timeseries.New(timeseries.Config{IntervalSeconds: 1})
				cc := mode.chaos
				cc.Seed, cc.HorizonSeconds = seed, horizon
				f, err := New(Spec{
					Model: model.Llama31_8B(), GPU: hw.L4(), ProfileMaxLen: 2000,
					Router:    &router.Config{Policy: router.AffinityLoad{}, MaxBacklogSeconds: 1},
					Autoscale: &autoscale.Config{MinInstances: 2, MaxInstances: 3},
					Chaos:     cc,
					Tracer:    rec, SampleSeconds: 0.5,
					Timeseries: ts,
				})
				if err != nil {
					t.Fatal(err)
				}
				offerProfiles(f, requests, qps)
				f.Run()
				if err := f.Check(requests); err != nil {
					t.Fatal(err)
				}
				var win timeseries.Window
				for _, w := range ts.Snapshot(f.Clock().Now()).Windows {
					win.Arrivals += w.Arrivals
					win.Completions += w.Completions
					win.Rejects += w.Rejects
					win.Faults += w.Faults
					win.OrphansRerouted += w.OrphansRerouted
					win.OrphansShed += w.OrphansShed
				}
				var admitted, shed int64
				for _, d := range f.Router().Admission().Snapshot() {
					admitted += d.Accepted
					shed += d.Rejected
				}
				st := f.Chaos().Stats()
				completed, rejected, orphanShed := uint64(f.Completed()), uint64(f.Rejected()), uint64(f.OrphanShed())
				for _, c := range []struct {
					name      string
					got, want uint64
				}{
					{"window arrivals vs offered", win.Arrivals, requests},
					{"window completions vs Completed", win.Completions, completed},
					{"exec spans vs Completed", rec.Emitted(trace.KindExec), completed},
					{"window rejects vs Rejected + OrphanShed", win.Rejects, rejected + orphanShed},
					{"window faults vs Faults", win.Faults, st.Faults()},
					{"fault spans vs Faults + straggler ends", rec.Emitted(trace.KindFault), st.Faults() + st.Stragglers},
					{"window orphans rerouted vs Rerouted", win.OrphansRerouted, st.Rerouted},
					{"window orphans shed vs Shed", win.OrphansShed, st.Shed},
					{"chaos Shed vs OrphanShed", st.Shed, orphanShed},
					{"router admitted vs offered - Rejected + Rerouted", uint64(admitted), requests - rejected + st.Rerouted},
					{"route spans vs router admitted", rec.Emitted(trace.KindRoute), uint64(admitted)},
					{"router shed vs Rejected + ShedRejected", uint64(shed), rejected + st.ShedRejected},
					{"reject spans vs router shed", rec.Emitted(trace.KindReject), uint64(shed)},
				} {
					if c.got != c.want {
						t.Errorf("%s: %d != %d", c.name, c.got, c.want)
					}
				}
				if st.Faults() == 0 {
					t.Error("no fault fired")
				}
				rerouted, orphansShed, routerShed = rerouted+st.Rerouted, orphansShed+st.Shed, routerShed+shed
			})
		}
	}
	if rerouted == 0 || orphansShed == 0 || routerShed == 0 {
		t.Fatalf("%d orphans rerouted, %d shed, %d router sheds: every identity needs counts to compare",
			rerouted, orphansShed, routerShed)
	}
}

// TestCacheGaugesReadLiveCaches scales a crash-injected pool up and down
// under the tracer and samples its gauges every quarter second. Each
// sample holds one cache gauge per live instance, keyed by router ID and
// equal to that cache's Len(), and none for a released instance.
func TestCacheGaugesReadLiveCaches(t *testing.T) {
	const requests, qps = 160, 8.0
	rec := trace.New(64)
	f, err := New(Spec{
		Model: model.Llama31_8B(), GPU: hw.L4(), ProfileMaxLen: 2000,
		Router:    &router.Config{Policy: router.AffinityLoad{}},
		Autoscale: &autoscale.Config{MinInstances: 1, MaxInstances: 3, UpBacklogSeconds: 1},
		Chaos:     chaos.Config{Seed: 2, CrashRate: 0.1, HorizonSeconds: requests / qps},
		Tracer:    rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	offerProfiles(f, requests, qps)
	seen := map[int32]bool{}
	// The check ticks as an observer, like the fleet's own sampler: a
	// plain event would keep the autoscaler's tick alive, and it this.
	var obs *sim.Observer
	check := func(any) {
		now := f.Clock().Now()
		before := rec.Emitted(trace.KindCacheGauge)
		f.SampleTrace(now)
		live := f.Router().InstanceInfos()
		if n := rec.Emitted(trace.KindCacheGauge) - before; n != uint64(len(live)) {
			t.Errorf("t=%g: %d cache gauges for %d live instances", now, n, len(live))
			return
		}
		spans := rec.Spans()
		for _, s := range spans[len(spans)-len(live):] {
			eng, err := f.Router().EngineOf(int(s.Inst))
			if err != nil {
				t.Errorf("t=%g: cache gauge for released instance %d", now, s.Inst)
				continue
			}
			if n := eng.Cache().Len(); s.Kind != trace.KindCacheGauge || s.A != float64(n) {
				t.Errorf("t=%g: instance %d gauge %+v, its cache holds %d blocks", now, s.Inst, s, n)
			}
			seen[s.Inst] = true
		}
		if f.Clock().Pending() > 0 {
			obs.At(now + 0.25)
		}
	}
	obs = f.Clock().NewObserver(check, nil)
	obs.At(0.25)
	f.Run()
	if err := f.Check(requests); err != nil {
		t.Fatal(err)
	}
	crashes, downs := f.Chaos().Stats().Crashes, f.Autoscaler().Stats().ScaleDowns
	released := len(seen) - f.Router().Size()
	if crashes == 0 || downs == 0 || released <= int(crashes) {
		t.Fatalf("%d crashes, %d scale-downs, %d of %d sampled instances released: the scenario must release instances both ways",
			crashes, downs, released, len(seen))
	}
}

// TestProfileRunsOncePerFleet: an autoscaled fleet that scales up and
// replaces crashed instances profiles once, and every instance it built
// sizes its cache pool exactly as a fresh per-instance build does.
func TestProfileRunsOncePerFleet(t *testing.T) {
	const requests, qps = 240, 4.0
	const horizon = requests / qps
	spec := Spec{
		Model: model.Llama31_8B(), GPU: hw.L4(), ProfileMaxLen: 2000,
		Router:    &router.Config{Policy: router.AffinityLoad{}},
		Autoscale: &autoscale.Config{MinInstances: 2, MaxInstances: 3},
		Chaos:     chaos.Config{Seed: 5, CrashRate: 8 / horizon, HorizonSeconds: horizon},
	}
	f, err := New(spec)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < requests; i++ {
		toks := make([]uint64, 1000)
		for j := range toks {
			toks[j] = uint64(i%8)<<32 | uint64(j)
		}
		at := float64(i) / qps
		f.SubmitAt(at, &sched.Request{ID: int64(i + 1), UserID: i % 8, Tokens: toks, ArrivalTime: at})
	}
	f.Run()
	if err := f.Check(requests); err != nil {
		t.Fatal(err)
	}
	if crashes, scaleUps := f.Chaos().Stats().Crashes, f.Autoscaler().Stats().ScaleUps; crashes == 0 || scaleUps == 0 {
		t.Fatalf("%d crashes and %d scale-ups: the scenario needs both", crashes, scaleUps)
	}
	if len(f.profiles) != 1 || f.built <= spec.Autoscale.MinInstances {
		t.Fatalf("%d instances built from %d profiles, want more than %d from 1",
			f.built, len(f.profiles), spec.Autoscale.MinInstances)
	}
	fresh, err := core.New(engine.Config{Model: spec.Model, GPU: spec.GPU, Sim: &sim.Sim{}, ProfileMaxLen: spec.ProfileMaxLen}, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range f.Engines() {
		if got, want := e.Cache().CapacityBytes(), fresh.Cache().CapacityBytes(); got != want {
			t.Errorf("instance %d: pool %d B, a fresh build's %d B", i, got, want)
		}
	}
}
