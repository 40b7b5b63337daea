package server

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// FuzzCompletions sends arbitrary bodies and X-SLO-Class headers through
// the handler. Every answer carries a documented status and a JSON body,
// and a served completion reports the prompt's token count and a
// distribution over exactly the distinct allowed tokens.
func FuzzCompletions(f *testing.F) {
	f.Add(`{"prompt":"user profile: reads systems papers post 7: databases recommend? answer:","max_tokens":1,"allowed_tokens":["Yes","No"],"user":"u3"}`, "")
	f.Add(`{"prompt":"Approve this application? Answer:","allowed_tokens":["Yes","Yes","No"]}`, "")
	f.Add(`{"prompt":"Approve this application? Answer:"}`, "premium")
	f.Add(`{"prompt":"Approve this application? Answer:","max_tokens":2}`, "batch")
	f.Add(`{"prompt":"Approve`, "")
	f.Add("{\"prompt\":\"caf\xe9 \xff\xfe r\xc3sum\xc3\xa9 answer:\",\"slo_class\":\"batch\"}", "interactive")
	f.Add(`{"prompt":" \t\n\u00a0 "}`, "")
	h := NewHandler(testBackend(f), "m")
	f.Fuzz(func(t *testing.T, body, class string) {
		req := httptest.NewRequest(http.MethodPost, "/v1/completions", strings.NewReader(body))
		req.Header.Set("X-SLO-Class", class)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		switch rec.Code {
		case http.StatusOK, http.StatusBadRequest, http.StatusRequestEntityTooLarge,
			http.StatusTooManyRequests, http.StatusServiceUnavailable:
		default:
			t.Fatalf("status %d, body %s", rec.Code, rec.Body)
		}
		if !json.Valid(rec.Body.Bytes()) {
			t.Fatalf("status %d with a body that is not JSON: %q", rec.Code, rec.Body)
		}
		if rec.Code != http.StatusOK {
			return
		}
		// The handler decodes the first JSON value of the body; so does
		// this check.
		var in CompletionRequest
		if err := json.NewDecoder(strings.NewReader(body)).Decode(&in); err != nil {
			t.Fatalf("served a body that does not decode: %v", err)
		}
		var out CompletionResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
			t.Fatal(err)
		}
		if want := h.Backend.Tokenizer.Count(in.Prompt); out.Usage.PromptTokens != want {
			t.Fatalf("prompt_tokens %d, tokenizer counts %d", out.Usage.PromptTokens, want)
		}
		if out.Usage.PromptTokens < 2 {
			t.Fatalf("served prompt %q, which holds no piece beside the BOS", in.Prompt)
		}
		allowed := in.AllowedTokens
		if len(allowed) == 0 {
			allowed = []string{"Yes", "No"}
		}
		distinct := map[string]bool{}
		for _, tok := range allowed {
			distinct[tok] = true
		}
		if len(out.Choices) != 1 {
			t.Fatalf("%d choices, want 1", len(out.Choices))
		}
		scores := out.Choices[0].TokenScores
		var sum float64
		for tok, p := range scores {
			if !distinct[tok] {
				t.Fatalf("score for %q, which is not an allowed token of %q", tok, allowed)
			}
			sum += p
		}
		if len(scores) != len(distinct) || math.Abs(sum-1) > 1e-9 {
			t.Fatalf("token_scores %v over allowed %q: want one score per distinct token, summing to 1", scores, allowed)
		}
	})
}
