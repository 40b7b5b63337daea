package engine

import (
	"testing"

	"repro/internal/hw"
	"repro/internal/model"
	"repro/internal/sim"
)

// The §9 offload extension: when a user's profile prefix has been evicted
// from the GPU tier, a host-cached copy is restored over the host link
// instead of recomputed, and the request completes much faster.
func TestHostOffloadRestoresEvictedPrefix(t *testing.T) {
	runThirdRequest := func(hostBytes int64) Record {
		var s sim.Sim
		var recs []Record
		cfg := testConfig(&s, &recs)
		cfg.ProfileMaxLen = 16000
		cfg.HostCacheBytes = hostBytes
		eng, err := NewSerial(cfg, SerialSpec{Name: "po", Opts: hybridOpts()})
		if err != nil {
			t.Fatal(err)
		}
		// Shrink the effective pool by filling it with user 2's large
		// prefix between user 1's two requests.
		poolTokens := poolTokens(eng.Cache(), cfg.Model)
		u1 := sharedPrefixRequest(1, 1, poolTokens-poolTokens/4, 64, 0)
		u2 := sharedPrefixRequest(2, 2, poolTokens-poolTokens/4, 64, 1000)
		u1again := sharedPrefixRequest(3, 1, poolTokens-poolTokens/4, 96, 2000)
		s.At(u1.ArrivalTime, func() { eng.Submit(u1) })
		s.At(u2.ArrivalTime, func() { eng.Submit(u2) })
		s.At(u1again.ArrivalTime, func() { eng.Submit(u1again) })
		s.Run()
		if len(recs) != 3 {
			t.Fatalf("completed %d", len(recs))
		}
		return recs[2]
	}

	without := runThirdRequest(0)
	with := runThirdRequest(64 * hw.GiB)
	if without.RestoredTokens != 0 {
		t.Fatalf("restore happened with offloading disabled: %+v", without)
	}
	if with.RestoredTokens == 0 {
		t.Fatalf("no restore with offloading enabled: %+v", with)
	}
	if with.ExecTime() >= without.ExecTime()/2 {
		t.Fatalf("restore exec %.3fs not well below recompute %.3fs",
			with.ExecTime(), without.ExecTime())
	}
}

// Restoring must lose to recomputation when the host link is slower than
// the GPU would recompute the prefix.
func TestOffloadRestoreSkippedWhenRecomputeWins(t *testing.T) {
	var s sim.Sim
	var recs []Record
	g := hw.L4()
	g.HostBWBytes = 1e6 // absurdly slow host link
	cfg := Config{
		Model:          model.Llama31_8B(),
		GPU:            g,
		Sim:            &s,
		ProfileMaxLen:  16000,
		HostCacheBytes: 64 * hw.GiB,
		OnComplete:     func(r Record) { recs = append(recs, r) },
	}
	eng, err := NewSerial(cfg, SerialSpec{Name: "po", Opts: hybridOpts()})
	if err != nil {
		t.Fatal(err)
	}
	poolTokens := poolTokens(eng.Cache(), cfg.Model)
	u1 := sharedPrefixRequest(1, 1, poolTokens-poolTokens/4, 64, 0)
	u2 := sharedPrefixRequest(2, 2, poolTokens-poolTokens/4, 64, 1000)
	u1again := sharedPrefixRequest(3, 1, poolTokens-poolTokens/4, 96, 2000)
	s.At(u1.ArrivalTime, func() { eng.Submit(u1) })
	s.At(u2.ArrivalTime, func() { eng.Submit(u2) })
	s.At(u1again.ArrivalTime, func() { eng.Submit(u1again) })
	s.Run()
	if recs[2].RestoredTokens != 0 {
		t.Fatalf("restored over a link slower than recompute: %+v", recs[2])
	}
}
