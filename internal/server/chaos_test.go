package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/chaos"
	"repro/internal/router"
)

// TestChaosCrashSurfaces drives the served path to total fleet loss: a
// high crash rate kills both instances, in-flight work is orphaned and —
// with a zero retry budget — shed with a typed reject, and subsequent
// submits shed with no-capacity. The fault activity must surface in
// /v1/stats, /v1/metrics and the HTTP 503 contract.
func TestChaosCrashSurfaces(t *testing.T) {
	spec := testSpec(2)
	spec.Router = &router.Config{Policy: router.LeastLoaded{}}
	spec.Chaos = chaos.Config{Seed: 3, CrashRate: 50, RetryBudget: -1}
	b := newTestBackend(t, spec)

	// Submit until the injector has crashed the whole fleet and a typed
	// reject comes back. Each submit re-arms the parked fault streams; at
	// 1e7x speedup the crash gaps (~20 ms sim) elapse within the first
	// wall tick of each request.
	var rejErr error
	for i := 0; i < 100 && rejErr == nil; i++ {
		_, err := b.Submit("Approve this application? Answer:", nil, i)
		if err != nil {
			rejErr = err
		}
	}
	if rejErr == nil {
		t.Fatal("100 submits under CrashRate 50 all succeeded; no fault ever surfaced")
	}
	var rej *router.RejectError
	if !errors.As(rejErr, &rej) {
		t.Fatalf("fault shed returned %v, want *router.RejectError", rejErr)
	}
	if rej.Reason != router.ReasonOrphanRetries && rej.Reason != router.ReasonNoCapacity {
		t.Fatalf("shed reason %q, want orphan-retries or no-capacity", rej.Reason)
	}

	st := b.Stats()
	if st.Faults == nil {
		t.Fatal("stats carry no faults block with chaos enabled")
	}
	if st.Faults.ByKind[chaos.LabelCrash] == 0 {
		t.Fatalf("stats count no crashes: %+v", st.Faults)
	}
	if st.Faults.Orphaned != st.Faults.Rerouted+st.Faults.Shed {
		t.Fatalf("stats orphan split inconsistent: %+v", st.Faults)
	}

	var buf bytes.Buffer
	if _, err := b.Metrics().WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	if !strings.Contains(text, `prefill_faults_total{kind="crash"}`) {
		t.Errorf("metrics lack the crash fault counter:\n%s", text)
	}
	for _, fam := range []string{famOrphansReroute, famOrphansShed} {
		if !strings.Contains(text, fam) {
			t.Errorf("metrics lack family %s", fam)
		}
	}

	// The HTTP layer maps fault sheds to 503 + Retry-After with the
	// structured reject schema.
	srv := httptest.NewServer(NewHandler(b, "m"))
	defer srv.Close()
	body, _ := json.Marshal(CompletionRequest{Prompt: "Approve this application? Answer:", MaxTokens: 1})
	resp, err := http.Post(srv.URL+"/v1/completions", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("503 carries no Retry-After header")
	}
	var shed rejectBody
	if err := json.NewDecoder(resp.Body).Decode(&shed); err != nil {
		t.Fatal(err)
	}
	if shed.Reason != router.ReasonOrphanRetries && shed.Reason != router.ReasonNoCapacity {
		t.Fatalf("503 body reason %q, want orphan-retries or no-capacity", shed.Reason)
	}
	if shed.Error == "" || shed.Class == "" {
		t.Fatalf("503 body incomplete: %+v", shed)
	}
}
