package server

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/router"
	"repro/internal/timeseries"
)

// TestTimeseriesEndpoint covers both collector states: 404 with a hint
// when disabled, a parseable export with live counts when enabled.
func TestTimeseriesEndpoint(t *testing.T) {
	off := testBackend(t)
	srvOff := httptest.NewServer(NewHandler(off, "m"))
	defer srvOff.Close()
	resp, err := http.Get(srvOff.URL + "/v1/timeseries")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("timeseries without collector: status %d, want 404", resp.StatusCode)
	}

	// The backend clock free-runs at 1e7 sim-seconds per wall second, so
	// the window width must be sized to the speedup (as prefillserve's
	// default does) for scrapes to land inside live windows.
	spec := testSpec(2)
	spec.Router = &router.Config{Policy: router.AffinityLoad{}}
	spec.Timeseries = timeseries.New(timeseries.Config{IntervalSeconds: 1e7})
	on := newTestBackend(t, spec)
	prompt := "Here is the user profile: reads systems papers. Recommend this post? Answer:"
	for i := 0; i < 3; i++ {
		if _, err := on.Submit(prompt, nil, 7); err != nil {
			t.Fatal(err)
		}
	}
	srvOn := httptest.NewServer(NewHandler(on, "m"))
	defer srvOn.Close()
	resp, err = http.Get(srvOn.URL + "/v1/timeseries")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("timeseries with collector: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Fatalf("Content-Type = %q", ct)
	}
	var exp timeseries.Export
	if err := json.NewDecoder(resp.Body).Decode(&exp); err != nil {
		t.Fatalf("timeseries is not valid JSON: %v", err)
	}
	if exp.IntervalSeconds != 1e7 {
		t.Fatalf("interval = %g, want 1e7", exp.IntervalSeconds)
	}
	if len(exp.Windows) == 0 {
		t.Fatal("no windows after served requests (the open window must snapshot as a partial row)")
	}
	var completions uint64
	for _, w := range exp.Windows {
		completions += w.Completions
	}
	if completions != 3 {
		t.Fatalf("windows account %d completions, served 3", completions)
	}
	if exp.Windows[len(exp.Windows)-1].PoolSize != 2 {
		t.Fatalf("last window pool size %d, want 2", exp.Windows[len(exp.Windows)-1].PoolSize)
	}

	// The metrics exposition must carry the new observability families:
	// the closed-window counter, the events/sec gauge, and GPU-seconds
	// (monotonic even without the autoscaler).
	mresp, err := http.Get(srvOn.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	body, err := io.ReadAll(mresp.Body)
	if err != nil {
		t.Fatal(err)
	}
	out := string(body)
	for _, want := range []string{
		"# TYPE prefill_timeseries_windows_total counter",
		"# TYPE prefill_sim_events_per_second gauge",
		"prefill_sim_events_per_second ",
		"# TYPE prefill_pool_gpu_seconds_total counter",
		"prefill_pool_gpu_seconds_total ",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
	if t.Failed() {
		t.Logf("full exposition:\n%s", out)
	}
}
