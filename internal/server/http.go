package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"

	"repro/internal/router"
	"repro/internal/sched"
	"repro/internal/timeseries"
)

// CompletionRequest is the accepted subset of the OpenAI completions API,
// extended with the paper's allowed-token constraint. decodeCompletion
// decodes it, matching each key against the field's JSON name; a new
// field needs a case there.
type CompletionRequest struct {
	Model  string `json:"model"`
	Prompt string `json:"prompt"`
	// MaxTokens must be 1 (or omitted): this is a prefill-only engine.
	MaxTokens int `json:"max_tokens,omitempty"`
	// AllowedTokens constrains the output distribution (default Yes/No).
	AllowedTokens []string `json:"allowed_tokens,omitempty"`
	// User routes requests of one user to shared prefix caches.
	User string `json:"user,omitempty"`
	// SLOClass selects the request's SLO class ("interactive" default,
	// "batch"): the class's admission budget, scheduling weight and
	// autoscale treatment apply. The X-SLO-Class header sets it too; the
	// body field wins when both are present.
	SLOClass string `json:"slo_class,omitempty"`
}

// CompletionChoice is one completion result.
type CompletionChoice struct {
	Text         string             `json:"text"`
	Index        int                `json:"index"`
	FinishReason string             `json:"finish_reason"`
	TokenScores  map[string]float64 `json:"token_scores"`
}

// CompletionResponse is the API response body.
type CompletionResponse struct {
	ID      string             `json:"id"`
	Object  string             `json:"object"`
	Model   string             `json:"model"`
	Choices []CompletionChoice `json:"choices"`
	Usage   CompletionUsage    `json:"usage"`
	// SimLatencySeconds reports the modelled GPU latency of the request.
	SimLatencySeconds float64 `json:"sim_latency_seconds"`
	// CachedTokens reports the prefix-cache hit length.
	CachedTokens int `json:"cached_tokens"`
}

// CompletionUsage mirrors the OpenAI usage block.
type CompletionUsage struct {
	PromptTokens     int `json:"prompt_tokens"`
	CompletionTokens int `json:"completion_tokens"`
	TotalTokens      int `json:"total_tokens"`
}

type apiError struct {
	Error string `json:"error"`
}

// maxCompletionBody caps a /v1/completions request body. 16 MiB allows 128
// bytes per token for a 131,072-token prompt; the tokenizer's pieces are at
// most 6 bytes, and a symbol piece is one rune, so any prompt an engine can
// admit fits far below the cap. It only stops a client from making the
// server buffer an unbounded body.
const maxCompletionBody = 16 << 20

// rejectBody is the payload for typed request sheds — 429 for
// admission-control rejects, 503 for fault-driven drops — the
// human-readable error plus the structured decision, so clients can back
// off per class or per budget without parsing the message.
type rejectBody struct {
	Error string `json:"error"`
	// Reason is the shed cause: "backlog" (aggregate MaxBacklogSeconds)
	// or "class-budget" (the class's own entry) on a 429;
	// "orphan-retries" (a fault orphaned the request and its re-admission
	// retry budget ran out) or "no-capacity" (no routable instances) on
	// a 503.
	Reason string `json:"reason"`
	// Class is the shed request's SLO class label.
	Class string `json:"class"`
	// Policy is the routing policy that chose the instance.
	Policy string `json:"policy"`
	// Instance is the chosen instance's stable ID.
	Instance int `json:"instance"`
	// BacklogSeconds is the instance's estimated backlog at rejection.
	BacklogSeconds float64 `json:"backlog_seconds"`
	// BoundSeconds is the admission bound that applied.
	BoundSeconds float64 `json:"bound_seconds"`
}

// Handler serves the OpenAI-compatible API over a Backend.
type Handler struct {
	Backend   *Backend
	ModelName string
	mux       *http.ServeMux
}

// NewHandler builds the HTTP handler.
func NewHandler(b *Backend, modelName string) *Handler {
	h := &Handler{Backend: b, ModelName: modelName, mux: http.NewServeMux()}
	h.mux.HandleFunc("/v1/completions", h.completions)
	h.mux.HandleFunc("/v1/models", readOnly(h.models))
	h.mux.HandleFunc("/v1/stats", readOnly(h.stats))
	h.mux.HandleFunc("/v1/metrics", readOnly(h.metrics))
	h.mux.HandleFunc("/v1/trace", readOnly(h.trace))
	h.mux.HandleFunc("/v1/timeseries", readOnly(h.timeseries))
	h.mux.HandleFunc("/healthz", readOnly(func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusOK)
		fmt.Fprintln(w, "ok")
	}))
	return h
}

// readOnly restricts a handler to GET and HEAD, answering anything else
// with a consistent 405 and an Allow header.
func readOnly(next http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet && r.Method != http.MethodHead {
			w.Header().Set("Allow", "GET, HEAD")
			writeJSON(w, http.StatusMethodNotAllowed, apiError{"GET or HEAD required"})
			return
		}
		next(w, r)
	}
}

// ServeHTTP implements http.Handler.
func (h *Handler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	h.mux.ServeHTTP(w, r)
}

func writeJSON(w http.ResponseWriter, status int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func (h *Handler) models(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]interface{}{
		"object": "list",
		"data": []map[string]string{
			{"id": h.ModelName, "object": "model", "owned_by": "prefillonly"},
		},
	})
}

// stats reports the cluster's live state: per-instance router loads,
// the admission tally, and (when autoscaled) the pool controller.
func (h *Handler) stats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, h.Backend.Stats())
}

// metrics serves the cluster's counters, gauges and histograms in
// Prometheus text exposition format.
func (h *Handler) metrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	_, _ = h.Backend.Metrics().WriteTo(w)
}

// trace serves the flight recorder's live window as Chrome trace-event
// JSON (loadable in Perfetto), or 404 when tracing is disabled.
func (h *Handler) trace(w http.ResponseWriter, r *http.Request) {
	rec := h.Backend.Trace()
	if rec == nil {
		writeJSON(w, http.StatusNotFound, apiError{"tracing disabled (start the server with -trace)"})
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_ = rec.WriteTrace(w)
}

// timeseries serves the windowed sim-time series as JSON — every closed
// window plus a partial row for the open one — or 404 when the collector
// is disabled. Snapshots are side-effect-free, so scraping mid-window is
// safe.
func (h *Handler) timeseries(w http.ResponseWriter, r *http.Request) {
	exp, ok := h.Backend.Timeseries()
	if !ok {
		writeJSON(w, http.StatusNotFound, apiError{"time-series disabled (start the server with -timeseries)"})
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_ = timeseries.WriteJSON(w, exp)
}

func (h *Handler) completions(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeJSON(w, http.StatusMethodNotAllowed, apiError{"POST required"})
		return
	}
	body, err := readBody(http.MaxBytesReader(w, r.Body, maxCompletionBody), r.ContentLength)
	req, err := decodeCompletion(body, err)
	if err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeJSON(w, http.StatusRequestEntityTooLarge,
				apiError{fmt.Sprintf("request body exceeds %d bytes", tooLarge.Limit)})
			return
		}
		writeJSON(w, http.StatusBadRequest, apiError{fmt.Sprintf("bad request body: %v", err)})
		return
	}
	if req.Prompt == "" {
		writeJSON(w, http.StatusBadRequest, apiError{"prompt is required"})
		return
	}
	if req.MaxTokens > 1 {
		writeJSON(w, http.StatusBadRequest,
			apiError{"prefill-only engine: max_tokens must be 1 (see PrefillOnly §2.3)"})
		return
	}
	userID := 0
	if req.User != "" {
		userID = userHash(req.User)
	}
	classLabel := req.SLOClass
	if classLabel == "" {
		classLabel = r.Header.Get("X-SLO-Class")
	}
	class, err := sched.ParseClass(classLabel)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, apiError{err.Error()})
		return
	}
	res, err := h.Backend.SubmitClass(req.Prompt, req.AllowedTokens, userID, class)
	if errors.Is(err, ErrEmptyPrompt) {
		writeJSON(w, http.StatusBadRequest, apiError{err.Error()})
		return
	}
	if err != nil {
		// Admission-control sheds are the client's signal to back off;
		// the structured fields say which budget tripped and for whom.
		// Fault-driven sheds (the instance died and re-admission gave up,
		// or the pool has no routable instance) are 503 — the request was
		// admitted or admissible, the service just can't carry it right
		// now — with a Retry-After hinting at the recovery cadence.
		var rej *router.RejectError
		if errors.As(err, &rej) {
			status := http.StatusTooManyRequests
			if rej.Reason == router.ReasonOrphanRetries || rej.Reason == router.ReasonNoCapacity {
				status = http.StatusServiceUnavailable
				w.Header().Set("Retry-After", "1")
			}
			writeJSON(w, status, rejectBody{
				Error:          err.Error(),
				Reason:         rej.Reason,
				Class:          rej.Class.String(),
				Policy:         rej.Policy,
				Instance:       rej.Instance,
				BacklogSeconds: rej.BacklogSeconds,
				BoundSeconds:   rej.BoundSeconds,
			})
			return
		}
		writeJSON(w, http.StatusServiceUnavailable, apiError{err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, CompletionResponse{
		ID:     "cmpl-" + strconv.FormatInt(res.RequestID, 36),
		Object: "text_completion",
		Model:  h.ModelName,
		Choices: []CompletionChoice{{
			Text:         res.Token,
			FinishReason: "length",
			TokenScores:  res.Scores,
		}},
		Usage: CompletionUsage{
			PromptTokens:     res.PromptTokens,
			CompletionTokens: 1,
			TotalTokens:      res.PromptTokens + 1,
		},
		SimLatencySeconds: res.SimLatency,
		CachedTokens:      res.CachedTokens,
	})
}

// userHash folds a user identifier into a routing integer.
func userHash(s string) int {
	h := 0
	for i := 0; i < len(s); i++ {
		h = h*131 + int(s[i])
	}
	if h < 0 {
		h = -h
	}
	return h
}
