package router

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/hw"
	"repro/internal/model"
	"repro/internal/sim"
)

// killableCluster builds n unwrapped PrefillOnly instances: unlike
// testCluster there is no counting wrapper, so the engines keep their
// killableEngine surface and Fail works on them.
func killableCluster(t *testing.T, s *sim.Sim, n int) ([]engine.Engine, *func(engine.Record)) {
	t.Helper()
	var chain func(engine.Record)
	cfg := engine.Config{
		Model: model.Llama31_8B(), GPU: hw.L4(), Sim: s, ProfileMaxLen: 4000,
		OnComplete: func(rec engine.Record) {
			if chain != nil {
				chain(rec)
			}
		},
	}
	engines := make([]engine.Engine, n)
	for i := range engines {
		e, err := core.New(cfg, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		engines[i] = e
	}
	return engines, &chain
}

// TestFailOrphansAndRetiresID: Fail must return every request routed to
// the instance and not yet completed, remove the instance immediately
// (no drain), retire its ID, and leave the survivor able to absorb the
// re-submitted orphans.
func TestFailOrphansAndRetiresID(t *testing.T) {
	var s sim.Sim
	engines, chain := killableCluster(t, &s, 2)
	rt, err := New(Config{Policy: LeastLoaded{}}, engines...)
	if err != nil {
		t.Fatal(err)
	}
	*chain = rt.Completed

	for i := int64(1); i <= 12; i++ {
		if err := rt.Submit(mkReq(i, int(i), 800)); err != nil {
			t.Fatal(err)
		}
	}
	victim := rt.InstanceInfos()[0]
	if victim.Load.QueuedRequests == 0 {
		t.Fatal("victim has no in-flight work; LeastLoaded should have spread 12 requests")
	}
	orphans, err := rt.Fail(victim.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(orphans) != victim.Load.QueuedRequests {
		t.Fatalf("Fail returned %d orphans, victim had %d in flight", len(orphans), victim.Load.QueuedRequests)
	}
	if rt.Has(victim.ID) {
		t.Error("failed instance still registered")
	}
	if rt.Size() != 1 || rt.Routable() != 1 {
		t.Fatalf("size %d routable %d after crash, want 1/1", rt.Size(), rt.Routable())
	}
	for _, r := range orphans {
		if err := rt.Submit(r); err != nil {
			t.Fatalf("re-admitting orphan %d: %v", r.ID, err)
		}
	}
	s.Run()
	if rt.InFlight() != 0 {
		t.Fatalf("in-flight %d after the survivor drained", rt.InFlight())
	}
	// The crashed ID is retired: growing the cluster mints a fresh one.
	added := addInstance(t, &s, rt)
	_ = added
	for _, info := range rt.InstanceInfos() {
		if info.ID == victim.ID {
			t.Fatalf("crashed ID %d was reused", victim.ID)
		}
	}
}

// TestLastRoutableCrashShedsTyped: crashing the last routable instance
// must not panic, and a subsequent submit is shed with the typed
// no-capacity reject rather than an untyped error.
func TestLastRoutableCrashShedsTyped(t *testing.T) {
	var s sim.Sim
	engines, chain := killableCluster(t, &s, 2)
	rt, err := New(Config{}, engines...)
	if err != nil {
		t.Fatal(err)
	}
	*chain = rt.Completed

	for _, info := range rt.InstanceInfos() {
		if _, err := rt.Fail(info.ID); err != nil {
			t.Fatal(err)
		}
	}
	if rt.Routable() != 0 || rt.Size() != 0 {
		t.Fatalf("routable %d size %d after failing everything, want 0/0", rt.Routable(), rt.Size())
	}
	err = rt.Submit(mkReq(1, 1, 300))
	var rej *RejectError
	if !errors.As(err, &rej) {
		t.Fatalf("submit into an empty pool returned %v, want *RejectError", err)
	}
	if rej.Reason != ReasonNoCapacity {
		t.Errorf("reject reason %q, want %q", rej.Reason, ReasonNoCapacity)
	}
	if !strings.Contains(err.Error(), "no routable instances") {
		t.Errorf("reject message %q lost the no-capacity phrasing", err.Error())
	}
}

// TestCondemnBlocksUndrain: a drained instance revives, a condemned one
// (spot preemption notice) does not — the autoscaler's revive-first
// scale-up path must fall through to a cold start.
func TestCondemnBlocksUndrain(t *testing.T) {
	var s sim.Sim
	engines, chain := killableCluster(t, &s, 2)
	rt, err := New(Config{}, engines...)
	if err != nil {
		t.Fatal(err)
	}
	*chain = rt.Completed
	id := rt.InstanceInfos()[0].ID

	if err := rt.Drain(id); err != nil {
		t.Fatal(err)
	}
	if err := rt.Undrain(id); err != nil {
		t.Fatalf("undraining a merely drained instance: %v", err)
	}
	if err := rt.Drain(id); err != nil {
		t.Fatal(err)
	}
	if err := rt.Condemn(id); err != nil {
		t.Fatal(err)
	}
	err = rt.Undrain(id)
	if err == nil {
		t.Fatal("undrained a condemned instance")
	}
	if !strings.Contains(err.Error(), "condemned") {
		t.Errorf("undrain error %q does not mention condemnation", err.Error())
	}
	if err := rt.Condemn(12345); err == nil {
		t.Error("condemned an unknown instance")
	}
}

// TestCacheStatsSurviveRemoveAndFail: CacheStats is cumulative over every
// instance the router has held. Releasing an instance, gracefully or by a
// crash, folds its lookups and hits into the total instead of dropping
// them with the engine.
func TestCacheStatsSurviveRemoveAndFail(t *testing.T) {
	var s sim.Sim
	engines, chain := killableCluster(t, &s, 3)
	rt, err := New(Config{Policy: UserHash{}}, engines...)
	if err != nil {
		t.Fatal(err)
	}
	*chain = rt.Completed
	// Two requests per user, sharing their prompt: every instance looks
	// up both and hits on the second.
	id := int64(0)
	for round := 0; round < 2; round++ {
		for user := 0; user < 6; user++ {
			id++
			if err := rt.Submit(mkReq(id, user, 600)); err != nil {
				t.Fatal(err)
			}
		}
		s.Run()
	}
	for i, e := range engines {
		if st := e.Cache().Stats(); st.LookupTokens == 0 || st.HitTokens == 0 {
			t.Fatalf("instance %d saw no lookups or hits: %+v", i, st)
		}
	}
	before := rt.CacheStats()
	infos := rt.InstanceInfos()
	if err := rt.Drain(infos[0].ID); err != nil {
		t.Fatal(err)
	}
	if err := rt.Remove(infos[0].ID); err != nil {
		t.Fatal(err)
	}
	if got := rt.CacheStats(); got.LookupTokens != before.LookupTokens || got.HitTokens != before.HitTokens {
		t.Fatalf("after Remove: lookups %d hits %d, want %d %d", got.LookupTokens, got.HitTokens, before.LookupTokens, before.HitTokens)
	}
	if _, err := rt.Fail(infos[1].ID); err != nil {
		t.Fatal(err)
	}
	if got := rt.CacheStats(); got.LookupTokens != before.LookupTokens || got.HitTokens != before.HitTokens {
		t.Fatalf("after Fail: lookups %d hits %d, want %d %d", got.LookupTokens, got.HitTokens, before.LookupTokens, before.HitTokens)
	}
	if rt.Size() != 1 {
		t.Fatalf("size %d after releasing two of three instances", rt.Size())
	}
}
