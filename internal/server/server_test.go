package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"maps"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/fleet"
	"repro/internal/hw"
	"repro/internal/model"
)

// testSpec is a fleet of instances on small profile runs.
func testSpec(instances int) fleet.Spec {
	return fleet.Spec{
		Model:         model.Llama31_8B(),
		GPU:           hw.L4(),
		ProfileMaxLen: 4000,
		Instances:     instances,
	}
}

// newTestBackend serves spec at a huge speedup, so tests finish
// instantly.
func newTestBackend(t testing.TB, spec fleet.Spec) *Backend {
	t.Helper()
	b, err := NewBackend(spec, 1e7)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(b.Close)
	return b
}

// testBackend is single-engine serving: a one-instance fleet.
func testBackend(t testing.TB) *Backend { return newTestBackend(t, testSpec(1)) }

func TestScoreProperties(t *testing.T) {
	prompt := []uint64{1, 2, 3}
	s := Score(prompt, []string{"Yes", "No"})
	if len(s) != 2 {
		t.Fatalf("scores = %v", s)
	}
	sum := s["Yes"] + s["No"]
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("probabilities sum to %v", sum)
	}
	// Deterministic.
	s2 := Score(prompt, []string{"No", "Yes"}) // order-insensitive
	if s2["Yes"] != s["Yes"] {
		t.Fatal("score depends on allowed-token order")
	}
	// Prompt-sensitive.
	s3 := Score([]uint64{9, 9, 9}, []string{"Yes", "No"})
	if s3["Yes"] == s["Yes"] {
		t.Fatal("score ignores prompt")
	}
	if Score(prompt, nil) != nil {
		t.Fatal("empty allowed set should yield nil")
	}
}

// TestScoreDuplicateAllowedTokens pins that a repeated allowed token is
// one outcome: the distribution still sums to 1, and it equals the one
// for the list without the repeat.
func TestScoreDuplicateAllowedTokens(t *testing.T) {
	prompt := []uint64{1, 2, 3}
	for _, tc := range []struct{ allowed, distinct []string }{
		{[]string{"Yes", "Yes", "No"}, []string{"Yes", "No"}},
		{[]string{"Yes", "Yes"}, []string{"Yes"}},
		{[]string{"No", "Yes", "No", "Yes"}, []string{"Yes", "No"}},
	} {
		s := Score(prompt, tc.allowed)
		var sum float64
		for _, p := range s {
			sum += p
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("%q: probabilities sum to %v", tc.allowed, sum)
		}
		if want := Score(prompt, tc.distinct); !maps.Equal(s, want) {
			t.Errorf("%q: scores %v, want those of %q: %v", tc.allowed, s, tc.distinct, want)
		}
	}
}

func TestBackendSubmit(t *testing.T) {
	b := testBackend(t)
	res, err := b.Submit("Here is the user profile: reads systems papers. Should we recommend this post? Answer:", nil, 7)
	if err != nil {
		t.Fatal(err)
	}
	if res.Token != "Yes" && res.Token != "No" {
		t.Fatalf("token = %q", res.Token)
	}
	if res.SimLatency <= 0 {
		t.Fatalf("sim latency = %v", res.SimLatency)
	}
	// Second identical submission hits the prefix cache.
	res2, err := b.Submit("Here is the user profile: reads systems papers. Should we recommend this post? Answer:", nil, 7)
	if err != nil {
		t.Fatal(err)
	}
	if res2.CachedTokens == 0 {
		t.Fatal("repeat prompt saw no cache hit")
	}
	if res2.Scores["Yes"] != res.Scores["Yes"] {
		t.Fatal("same prompt produced different scores")
	}
}

func TestBackendRejectsEmptyPrompt(t *testing.T) {
	b := testBackend(t)
	// With the default BOS, a whitespace-only prompt encodes to the BOS
	// alone.
	if _, err := b.Submit(" \t\n ", nil, 0); !errors.Is(err, ErrEmptyPrompt) {
		t.Fatalf("whitespace-only prompt: err %v, want ErrEmptyPrompt", err)
	}
	b.Tokenizer.BOS = 0
	if _, err := b.Submit("", nil, 0); !errors.Is(err, ErrEmptyPrompt) {
		t.Fatalf("empty prompt without a BOS: err %v, want ErrEmptyPrompt", err)
	}
}

// TestIdleBackendSleeps checks that the clock loop sleeps while no event
// is due: an idle server runs it at most once in 100 ms.
func TestIdleBackendSleeps(t *testing.T) {
	b := testBackend(t)
	runs := func() int {
		b.mu.Lock()
		defer b.mu.Unlock()
		return b.loopRuns
	}
	before := runs()
	time.Sleep(100 * time.Millisecond)
	if n := runs() - before; n > 1 {
		t.Fatalf("the clock loop ran %d times in 100 ms on an idle server", n)
	}
}

func TestBackendCloseUnblocks(t *testing.T) {
	b := testBackend(t)
	b.Close()
	if _, err := b.Submit("hello", nil, 0); err == nil {
		t.Fatal("submit after close accepted")
	}
	b.Close() // idempotent
}

// TestHTTPCompletionsBodyLimit sends a normal body and two over the cap.
// The normal body is served. An over-cap body whose first value runs past
// the cap is refused with 413 and the JSON error body once the cap is
// reached, without the rest being read; one whose first value ends inside
// the cap is served.
func TestHTTPCompletionsBodyLimit(t *testing.T) {
	h := NewHandler(testBackend(t), "prefillonly-test")
	post := func(promptBytes int) *httptest.ResponseRecorder {
		body := io.MultiReader(
			strings.NewReader(`{"prompt":"`),
			io.LimitReader(&repeatReader{word: "profile "}, int64(promptBytes)),
			strings.NewReader(`Answer:","max_tokens":1}`),
		)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/completions", body))
		return rec
	}

	if rec := post(2000); rec.Code != http.StatusOK {
		t.Fatalf("normal body: status %d, body %s", rec.Code, rec.Body)
	}
	rec := post(maxCompletionBody)
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: status %d, want 413", rec.Code)
	}
	var e apiError
	if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || !strings.Contains(e.Error, "exceeds") {
		t.Fatalf("oversized body: error body %q (%v)", rec.Body, err)
	}

	// Only the first JSON value counts: an over-cap body whose first
	// value ends inside the cap is served.
	body := io.MultiReader(
		strings.NewReader(`{"prompt":"profile Answer:","max_tokens":1}`),
		io.LimitReader(&repeatReader{word: " "}, maxCompletionBody),
	)
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/completions", body))
	if rec.Code != http.StatusOK {
		t.Fatalf("over-cap body whose first value ends inside the cap: status %d, want 200; body %s", rec.Code, rec.Body)
	}
}

// repeatReader yields word over and over.
type repeatReader struct {
	word string
	off  int
}

func (r *repeatReader) Read(p []byte) (int, error) {
	n := 0
	for n < len(p) {
		c := copy(p[n:], r.word[r.off:])
		n += c
		r.off = (r.off + c) % len(r.word)
	}
	return n, nil
}

func TestHTTPCompletions(t *testing.T) {
	b := testBackend(t)
	h := NewHandler(b, "prefillonly-test")
	srv := httptest.NewServer(h)
	defer srv.Close()

	prompt := "Credit history: paid on time for 10 months. Approve this application? Answer:"
	body, _ := json.Marshal(CompletionRequest{
		Model:         "prefillonly-test",
		Prompt:        prompt,
		MaxTokens:     1,
		AllowedTokens: []string{"Approve", "Deny"},
		User:          "user-42",
	})
	resp, err := http.Post(srv.URL+"/v1/completions", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var out CompletionResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out.Choices) != 1 {
		t.Fatalf("choices = %+v", out.Choices)
	}
	c := out.Choices[0]
	if c.Text != "Approve" && c.Text != "Deny" {
		t.Fatalf("text = %q", c.Text)
	}
	if math.Abs(c.TokenScores["Approve"]+c.TokenScores["Deny"]-1) > 1e-9 {
		t.Fatalf("scores = %v", c.TokenScores)
	}
	if out.Usage.PromptTokens != b.Tokenizer.Count(prompt) || out.Usage.CompletionTokens != 1 {
		t.Fatalf("usage = %+v", out.Usage)
	}
}

// Identical completions get distinct IDs: "cmpl-" and the base-36 form
// of the request's ID, which its trace spans carry too.
func TestHTTPCompletionIDsUnique(t *testing.T) {
	b := testBackend(t)
	h := NewHandler(b, "prefillonly-test")
	b.mu.Lock()
	b.nextID = 34 // the next requests are 35 and 36: "z" and "10" in base 36
	b.mu.Unlock()
	for _, want := range []string{"cmpl-z", "cmpl-10"} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/completions",
			strings.NewReader(`{"prompt":"Approve this application? Answer:","max_tokens":1}`)))
		var out CompletionResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil || rec.Code != http.StatusOK {
			t.Fatalf("status %d, body %s (%v)", rec.Code, rec.Body, err)
		}
		if out.ID != want {
			t.Fatalf("completion id %q, want %q", out.ID, want)
		}
	}
	res, err := b.Submit("Approve this application? Answer:", nil, 0)
	if err != nil || res.RequestID != 37 {
		t.Fatalf("RequestID %d (%v), want 37", res.RequestID, err)
	}
}

func TestHTTPValidation(t *testing.T) {
	b := testBackend(t)
	srv := httptest.NewServer(NewHandler(b, "m"))
	defer srv.Close()

	post := func(body string) *http.Response {
		resp, err := http.Post(srv.URL+"/v1/completions", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	for _, tc := range []struct {
		name, body string
		status     int
	}{
		{"malformed body", `{`, http.StatusBadRequest},
		{"empty body", ``, http.StatusBadRequest},
		{"empty prompt", `{"prompt":""}`, http.StatusBadRequest},
		{"whitespace-only prompt", `{"prompt":"  \n "}`, http.StatusBadRequest},
		{"multi-token request", `{"prompt":"hi","max_tokens":16}`, http.StatusBadRequest},
		// Only the body's first JSON value is read.
		{"trailing junk after the object", `{"prompt":"hi"} trailing junk`, http.StatusOK},
		{"wrong-typed field", `{"prompt":"hi","max_tokens":"1"}`, http.StatusBadRequest},
		{"non-integer max_tokens", `{"prompt":"hi","max_tokens":1.0}`, http.StatusBadRequest},
	} {
		resp := post(tc.body)
		resp.Body.Close()
		if resp.StatusCode != tc.status {
			t.Errorf("%s: status %d, want %d", tc.name, resp.StatusCode, tc.status)
		}
	}
	getResp, err := http.Get(srv.URL + "/v1/completions")
	if err != nil {
		t.Fatal(err)
	}
	getResp.Body.Close()
	if getResp.StatusCode != http.StatusMethodNotAllowed || getResp.Header.Get("Allow") != http.MethodPost {
		t.Errorf("GET: status %d, Allow %q; want 405 and POST", getResp.StatusCode, getResp.Header.Get("Allow"))
	}
	health, err := http.Get(srv.URL + "/healthz")
	if err != nil || health.StatusCode != http.StatusOK {
		t.Errorf("healthz failed: %v %v", err, health)
	}
	models, err := http.Get(srv.URL + "/v1/models")
	if err != nil || models.StatusCode != http.StatusOK {
		t.Errorf("models failed: %v", err)
	}
}
