package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"repro/internal/router"
)

func testRoutedBackend(t *testing.T, instances int, rcfg router.Config) *Backend {
	t.Helper()
	spec := testSpec(instances)
	spec.Router = &rcfg
	return newTestBackend(t, spec)
}

func TestRoutedBackendSubmit(t *testing.T) {
	b := testRoutedBackend(t, 3, router.Config{Policy: router.AffinityLoad{}})
	if len(b.Engines()) != 3 || b.Router() == nil {
		t.Fatalf("routed backend shape: %d engines, router %v", len(b.Engines()), b.Router())
	}
	prompt := "Here is the user profile: reads systems papers. Recommend this post? Answer:"
	res, err := b.Submit(prompt, nil, 7)
	if err != nil {
		t.Fatal(err)
	}
	if res.Token != "Yes" && res.Token != "No" {
		t.Fatalf("token = %q", res.Token)
	}
	// A repeat from the same user routes to the same warm instance.
	res2, err := b.Submit(prompt, nil, 7)
	if err != nil {
		t.Fatal(err)
	}
	if res2.CachedTokens == 0 {
		t.Fatal("repeat prompt saw no cache hit through the router")
	}
	if b.Router().InFlight() != 0 {
		t.Fatalf("in-flight after completion: %d", b.Router().InFlight())
	}
	c := b.Router().Admission().Policy("affinity")
	if c.Accepted != 2 || c.Rejected != 0 {
		t.Fatalf("admission tally %+v", c)
	}
}

func TestRoutedBackendValidation(t *testing.T) {
	if _, err := NewBackend(testSpec(0), 1e7); err == nil {
		t.Fatal("zero instances accepted")
	}
	// A sharded kernel serves: the backend steps it with RunUntil, and
	// concurrent clients each get their own completion.
	spec := testSpec(2)
	spec.Shards = 2
	b := newTestBackend(t, spec)
	const clients = 40
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(user int) {
			defer wg.Done()
			prompt := fmt.Sprintf("Here is the profile of user %d: reads systems papers. Recommend this post? Answer:", user)
			res, err := b.Submit(prompt, nil, user)
			if err == nil && res.PromptTokens != b.Tokenizer.Count(prompt) {
				err = fmt.Errorf("user %d: %d prompt tokens, tokenizer counts %d", user, res.PromptTokens, b.Tokenizer.Count(prompt))
			}
			errs <- err
		}(i % 8)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if n := b.Router().InFlight(); n != 0 {
		t.Fatalf("in-flight after completion: %d", n)
	}
	if c := b.Router().Admission().Policy("affinity"); c.Accepted != clients {
		t.Fatalf("admission tally %+v, want %d accepted", c, clients)
	}
}

// TestRoutedBackendSheds covers admission control end to end: an absurdly
// tight backlog bound must reject the request with a typed error that the
// HTTP layer maps to 429.
func TestRoutedBackendSheds(t *testing.T) {
	b := testRoutedBackend(t, 2, router.Config{
		Policy:            router.LeastLoaded{},
		MaxBacklogSeconds: 1e-9,
	})
	_, err := b.Submit("Long credit history requiring real work to verify. Approve? Answer:", nil, 1)
	if err == nil {
		t.Fatal("submit under 1ns backlog bound accepted")
	}
	var rej *router.RejectError
	if !errors.As(err, &rej) {
		t.Fatalf("want *router.RejectError, got %T: %v", err, err)
	}

	srv := httptest.NewServer(NewHandler(b, "m"))
	defer srv.Close()
	body, _ := json.Marshal(CompletionRequest{Prompt: "Approve this application? Answer:", MaxTokens: 1})
	resp, err := http.Post(srv.URL+"/v1/completions", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("shed request: status %d, want 429", resp.StatusCode)
	}
}
