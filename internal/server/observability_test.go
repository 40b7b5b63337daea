package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/router"
	"repro/internal/trace"
)

// TestReadOnlyMethodGuards pins every read-only endpoint to GET/HEAD: a
// write method gets a consistent 405 with an Allow header instead of being
// silently served.
func TestReadOnlyMethodGuards(t *testing.T) {
	b := testBackend(t)
	srv := httptest.NewServer(NewHandler(b, "m"))
	defer srv.Close()
	client := srv.Client()

	endpoints := []string{"/healthz", "/v1/models", "/v1/stats", "/v1/metrics", "/v1/trace", "/v1/timeseries"}
	for _, ep := range endpoints {
		for _, method := range []string{http.MethodPost, http.MethodPut, http.MethodDelete} {
			req, err := http.NewRequest(method, srv.URL+ep, strings.NewReader("{}"))
			if err != nil {
				t.Fatal(err)
			}
			resp, err := client.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusMethodNotAllowed {
				t.Errorf("%s %s: status %d, want 405", method, ep, resp.StatusCode)
			}
			if allow := resp.Header.Get("Allow"); allow != "GET, HEAD" {
				t.Errorf("%s %s: Allow = %q, want \"GET, HEAD\"", method, ep, allow)
			}
		}
		// HEAD must pass the guard (body elision is the ResponseWriter's
		// job; /v1/trace legitimately 404s when tracing is off).
		req, err := http.NewRequest(http.MethodHead, srv.URL+ep, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := client.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusMethodNotAllowed {
			t.Errorf("HEAD %s: got 405", ep)
		}
	}
}

// TestMetricsEndpoint pins the /v1/metrics contract: Prometheus text
// format carrying the admission, queue-depth, cache-hit and pool-size
// families, with values reflecting served traffic.
func TestMetricsEndpoint(t *testing.T) {
	b := testRoutedBackend(t, 2, router.Config{Policy: router.AffinityLoad{}})
	prompt := "Here is the user profile: reads systems papers. Recommend this post? Answer:"
	if _, err := b.Submit(prompt, nil, 7); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Submit(prompt, nil, 7); err != nil { // warm repeat: cache hit
		t.Fatal(err)
	}

	srv := httptest.NewServer(NewHandler(b, "m"))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("Content-Type = %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	out := string(body)

	// The acceptance families must always be present (declared even when
	// sampleless) and these must carry live samples.
	for _, want := range []string{
		"# TYPE prefill_admission_decisions_total counter",
		`prefill_admission_decisions_total{policy="affinity",class="interactive",decision="accepted"} 2`,
		"# TYPE prefill_instance_queued_requests gauge",
		"# TYPE prefill_cache_hit_tokens_total counter",
		"# TYPE prefill_pool_size gauge",
		"prefill_pool_size 2",
		"# TYPE prefill_request_latency_seconds histogram",
		`prefill_request_latency_seconds_count{class="interactive"} 2`,
		"# TYPE prefill_sim_events_total counter",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
	if t.Failed() {
		t.Logf("full exposition:\n%s", out)
	}
	// The repeat prompt hit the cache, so hit tokens must be positive on
	// some instance.
	if !strings.Contains(out, `prefill_cache_hit_tokens_total{instance="`) {
		t.Errorf("no per-instance cache hit samples:\n%s", out)
	}
}

// TestMetricsSingleEngine checks the schema holds for a one-instance
// fleet: the admission family is declared, the instance row carries the
// router's queue depth under router ID 0, and the pool size is 1.
func TestMetricsSingleEngine(t *testing.T) {
	b := testBackend(t)
	srv := httptest.NewServer(NewHandler(b, "m"))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	out := string(body)
	for _, want := range []string{
		"# TYPE prefill_admission_decisions_total counter",
		`prefill_instance_queued_requests{instance="0"} 0`,
		"prefill_pool_size 1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("single-engine metrics missing %q:\n%s", want, out)
		}
	}
}

// TestTraceEndpoint covers both recorder states: 404 with a hint when
// tracing is off, Perfetto-loadable JSON when on.
func TestTraceEndpoint(t *testing.T) {
	off := testBackend(t)
	srvOff := httptest.NewServer(NewHandler(off, "m"))
	defer srvOff.Close()
	resp, err := http.Get(srvOff.URL + "/v1/trace")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("trace without recorder: status %d, want 404", resp.StatusCode)
	}

	spec := testSpec(1)
	spec.Tracer = trace.New(0)
	on := newTestBackend(t, spec)
	if _, err := on.Submit("Approve this credit application now? Answer:", nil, 3); err != nil {
		t.Fatal(err)
	}
	srvOn := httptest.NewServer(NewHandler(on, "m"))
	defer srvOn.Close()
	resp, err = http.Get(srvOn.URL + "/v1/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("trace with recorder: status %d", resp.StatusCode)
	}
	var file struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&file); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if len(file.TraceEvents) == 0 {
		t.Fatal("trace has no events after a served request")
	}
}

// TestShedResponseCarriesReason pins the structured 429 body: clients get
// the tripped budget, class and policy without parsing the error string.
func TestShedResponseCarriesReason(t *testing.T) {
	b := testRoutedBackend(t, 2, router.Config{
		Policy:            router.LeastLoaded{},
		MaxBacklogSeconds: 1e-9,
	})
	srv := httptest.NewServer(NewHandler(b, "m"))
	defer srv.Close()
	body, _ := json.Marshal(CompletionRequest{Prompt: "Approve this application? Answer:", MaxTokens: 1})
	resp, err := http.Post(srv.URL+"/v1/completions", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", resp.StatusCode)
	}
	var shed rejectBody
	if err := json.NewDecoder(resp.Body).Decode(&shed); err != nil {
		t.Fatal(err)
	}
	if shed.Reason != router.ReasonBacklog {
		t.Fatalf("reason = %q, want %q", shed.Reason, router.ReasonBacklog)
	}
	if shed.Class != "interactive" || shed.Policy != "leastloaded" {
		t.Fatalf("shed body = %+v", shed)
	}
	if shed.BoundSeconds != 1e-9 {
		t.Fatalf("bound = %v", shed.BoundSeconds)
	}

	// The reason also lands in /v1/stats for fleetwide visibility.
	stats := b.Stats()
	if n := stats.RejectReasons["leastloaded"]["interactive"][router.ReasonBacklog]; n != 1 {
		t.Fatalf("stats reject reasons = %+v", stats.RejectReasons)
	}
}
