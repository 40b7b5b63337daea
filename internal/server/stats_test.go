package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/autoscale"
	"repro/internal/router"
)

func TestAutoscaledBackendStats(t *testing.T) {
	spec := testSpec(3)
	spec.Autoscale = &autoscale.Config{MinInstances: 1}
	b := newTestBackend(t, spec)
	if b.Autoscaler() == nil {
		t.Fatal("autoscaled backend has no controller")
	}
	if _, err := b.Submit("Recommend this post to the user? Answer:", nil, 1); err != nil {
		t.Fatal(err)
	}

	h := NewHandler(b, "test-model")
	srv := httptest.NewServer(h)
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/v1/stats status %d", resp.StatusCode)
	}
	var snap StatsSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if len(snap.Instances) == 0 {
		t.Fatal("stats reported no instances")
	}
	if snap.Routable < 1 {
		t.Fatalf("routable %d, want >= 1", snap.Routable)
	}
	if snap.Autoscale == nil {
		t.Fatal("stats missing autoscale block")
	}
	if snap.Autoscale.PoolSize < 1 || snap.Autoscale.ColdStartSeconds <= 0 {
		t.Fatalf("autoscale block %+v", snap.Autoscale)
	}
	tally, ok := snap.Admission["affinity"]
	if !ok || tally.Accepted != 1 {
		t.Fatalf("admission block %+v", snap.Admission)
	}

	// POST is rejected.
	resp2, err := http.Post(srv.URL+"/v1/stats", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST /v1/stats status %d", resp2.StatusCode)
	}
}

func TestRoutedBackendStatsWithoutAutoscale(t *testing.T) {
	b := testRoutedBackend(t, 2, router.Config{Policy: router.LeastLoaded{}})
	snap := b.Stats()
	if len(snap.Instances) != 2 || snap.Routable != 2 {
		t.Fatalf("snapshot shape %+v", snap)
	}
	if snap.Autoscale != nil {
		t.Fatal("unexpected autoscale block on a fixed pool")
	}
}

// The SLO class travels from the HTTP surface (X-SLO-Class header or
// slo_class body field) into the router's per-class tallies and back out
// through /v1/stats.
func TestSLOClassFromRequestToStats(t *testing.T) {
	b := testRoutedBackend(t, 2, router.Config{Policy: router.LeastLoaded{}})
	h := NewHandler(b, "test-model")
	srv := httptest.NewServer(h)
	defer srv.Close()

	post := func(body string, hdr map[string]string) *http.Response {
		t.Helper()
		req, err := http.NewRequest(http.MethodPost, srv.URL+"/v1/completions", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		for k, v := range hdr {
			req.Header.Set(k, v)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	// One batch via body field, one batch via header, one unlabeled.
	for _, tc := range []struct {
		body string
		hdr  map[string]string
	}{
		{`{"prompt": "Score this document. Answer:", "slo_class": "batch"}`, nil},
		{`{"prompt": "Score that document. Answer:"}`, map[string]string{"X-SLO-Class": "batch"}},
		{`{"prompt": "Recommend this post? Answer:", "user": "u1"}`, nil},
	} {
		resp := post(tc.body, tc.hdr)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("completion status %d for %s", resp.StatusCode, tc.body)
		}
		resp.Body.Close()
	}
	// Unknown class is a client error.
	resp := post(`{"prompt": "x", "slo_class": "bulk"}`, nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown class status %d, want 400", resp.StatusCode)
	}
	resp.Body.Close()

	snap := b.Stats()
	byClass := snap.AdmissionByClass["leastloaded"]
	if byClass["batch"].Accepted != 2 {
		t.Fatalf("batch tally %+v", byClass)
	}
	if byClass["interactive"].Accepted != 1 {
		t.Fatalf("interactive tally %+v", byClass)
	}
	if agg := snap.Admission["leastloaded"]; agg.Accepted != 3 {
		t.Fatalf("aggregate tally %+v", agg)
	}
}

// TestSingleEngineStats: single-engine serving is a one-instance routed
// fleet, so its snapshot carries the router's load and admission tally.
func TestSingleEngineStats(t *testing.T) {
	b := testBackend(t)
	if _, err := b.Submit("Recommend this post to the user? Answer:", nil, 1); err != nil {
		t.Fatal(err)
	}
	snap := b.Stats()
	if len(snap.Instances) != 1 || snap.Routable != 1 || snap.Autoscale != nil {
		t.Fatalf("single-engine snapshot %+v", snap)
	}
	if snap.Instances[0].RoutedRequests != 1 {
		t.Fatalf("instance row %+v, want one routed request", snap.Instances[0])
	}
	if tally := snap.Admission["affinity"]; tally.Accepted != 1 {
		t.Fatalf("admission block %+v", snap.Admission)
	}
}

// TestStatsClockAdvancesWhenIdle scrapes /v1/stats twice, 50 ms apart, on
// a server that serves nothing: the clock loop sleeps, so each scrape must
// step the kernel itself and report at least the simulated time the wall
// clock had reached when it was sent.
func TestStatsClockAdvancesWhenIdle(t *testing.T) {
	b := testBackend(t)
	h := NewHandler(b, "m")
	scrape := func() float64 {
		t.Helper()
		floor := b.simNow()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/stats", nil))
		var snap StatsSnapshot
		if err := json.NewDecoder(rec.Body).Decode(&snap); err != nil {
			t.Fatal(err)
		}
		if snap.SimSeconds < floor {
			t.Fatalf("sim_seconds %v lags the wall clock's %v", snap.SimSeconds, floor)
		}
		return snap.SimSeconds
	}
	first := scrape()
	time.Sleep(50 * time.Millisecond)
	if second := scrape(); second <= first {
		t.Fatalf("sim_seconds %v, then %v 50 ms later", first, second)
	}
}
