package server

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/hw"
	"repro/internal/model"
)

func testBackend(t *testing.T) *Backend {
	t.Helper()
	b, err := NewBackend(engine.Config{
		Model:         model.Llama31_8B(),
		GPU:           hw.L4(),
		ProfileMaxLen: 4000,
	}, core.Options{}, 1e7) // huge speedup: tests finish instantly
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(b.Close)
	return b
}

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
	b.Tokenizer.BOS = 0
	if _, err := b.Submit("", nil, 0); err == nil {
		t.Fatal("empty prompt accepted")
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

// TestHTTPCompletionsBodyLimit sends a normal body and one over the cap:
// the first is served, the second is refused with 413 and the JSON error
// body once the cap is reached, without the rest being read.
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

	body, _ := json.Marshal(CompletionRequest{
		Model:         "prefillonly-test",
		Prompt:        "Credit history: paid on time for 10 months. Approve this application? Answer:",
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
	if out.Usage.PromptTokens <= 0 || out.Usage.CompletionTokens != 1 {
		t.Fatalf("usage = %+v", out.Usage)
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
	if resp := post(`{`); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed body: status %d", resp.StatusCode)
	}
	if resp := post(`{"prompt":""}`); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("empty prompt: status %d", resp.StatusCode)
	}
	if resp := post(`{"prompt":"hi","max_tokens":16}`); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("multi-token request: status %d", resp.StatusCode)
	}
	getResp, err := http.Get(srv.URL + "/v1/completions")
	if err != nil {
		t.Fatal(err)
	}
	if getResp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET: status %d", getResp.StatusCode)
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
