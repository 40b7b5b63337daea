package fleet

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/autoscale"
	"repro/internal/chaos"
	"repro/internal/engine"
	"repro/internal/hw"
	"repro/internal/kvcache"
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
			chain := kvcache.BlockHashes(make([]uint64, 4*c.BlockTokens()), c.BlockTokens())
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
