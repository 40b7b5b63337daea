// Package sched defines prefill-only requests and the scheduling policies
// the paper compares: first-in-first-out (FIFO), shortest-remaining-job-
// first with arrival-time JCT (SRJF), and PrefillOnly's SRJF with
// continuous JCT calibration and a queueing-time fairness offset
// (Algorithm 1).
package sched

import (
	"fmt"

	"repro/internal/kvcache"
	"repro/internal/ringbuf"
)

// Class is a request's SLO class. Serving traffic is stratified:
// latency-sensitive interactive requests (a user is waiting on the
// answer) and throughput-oriented batch requests (offline pipelines that
// tolerate queueing and shedding). The class threads through admission
// control (per-class backlog budgets), scheduling (per-class JCT weights)
// and autoscaling (only interactive pressure provisions capacity).
type Class uint8

const (
	// ClassInteractive is the latency-sensitive class and the zero value:
	// unlabeled requests are treated as interactive, so single-tenant
	// workloads keep their pre-class behavior exactly.
	ClassInteractive Class = iota
	// ClassBatch is the throughput-oriented class: shed first under
	// pressure, deprioritized by class-weighted scheduling.
	ClassBatch
	// NumClasses sizes per-class arrays indexed by Class.
	NumClasses = 2
)

// String returns the class's label ("interactive", "batch").
func (c Class) String() string {
	switch c {
	case ClassInteractive:
		return "interactive"
	case ClassBatch:
		return "batch"
	default:
		return fmt.Sprintf("class(%d)", uint8(c))
	}
}

// ParseClass maps a label to its Class; the empty string is interactive
// (the default for unlabeled traffic).
func ParseClass(s string) (Class, error) {
	switch s {
	case "", "interactive":
		return ClassInteractive, nil
	case "batch":
		return ClassBatch, nil
	default:
		return 0, fmt.Errorf("sched: unknown SLO class %q", s)
	}
}

// Classes returns every class in index order.
func Classes() []Class { return []Class{ClassInteractive, ClassBatch} }

// Request is one prefill-only request travelling through an engine.
type Request struct {
	// ID is unique within a run.
	ID int64
	// UserID identifies the request's user for routing and prefix
	// sharing (requests of one user share a profile prefix).
	UserID int
	// Tokens is the tokenized prompt. Prefix caching is content-
	// addressed over this sequence.
	Tokens []uint64
	// ArrivalTime is the simulated arrival timestamp in seconds.
	ArrivalTime float64
	// Class is the request's SLO class (zero value: interactive).
	Class Class

	// AllowedTokens optionally constrains the output distribution (§2.3:
	// e.g. []string{"Yes","No"}); interpreted by the serving frontend.
	AllowedTokens []string

	// EstimatedSeconds is the scheduler's JCT estimate for this request,
	// stamped when the policy dequeues it for execution (0 when the
	// policy does not estimate, e.g. FIFO). The trace layer reports it
	// alongside the measured execution time so estimator error is
	// observable per request.
	EstimatedSeconds float64

	// Prefix optionally declares a prompt prefix this request shares with
	// others (e.g. one user's template and profile). When set, Tokens
	// starts with Prefix.Tokens, and Tokens is still the whole prompt.
	// It changes no outcome: it lets engine.HashesOf hash the shared
	// tokens once rather than once per request, and share their chain.
	Prefix *Prefix

	// Chain memoizes the content-addressed prefix-cache hash chain of
	// Tokens for HashBlockTokens-sized blocks; it is valid only when
	// HashBlockTokens is that size, and 0 marks no memo. engine.HashesOf
	// computes it lazily, so repeated cache operations on large prompts
	// do not re-hash them. With a Prefix, the chain's Shared part is the
	// Prefix's own memo and its Own part the blocks after it.
	Chain           kvcache.Chain
	HashBlockTokens int

	// Retries counts how many times the request has been orphaned by an
	// instance failure and re-admitted (internal/chaos). Admission sheds
	// the request once it exceeds the injector's retry budget.
	Retries int
}

// Len returns the input length in tokens.
func (r *Request) Len() int { return len(r.Tokens) }

// Prefix is a prompt prefix shared by several requests, declared by the
// workload that builds them (a prompt module in the sense of Prompt
// Cache, Gim et al., MLSys 2024). Its block-hash chain is computed once
// per block size and referenced by each sharing request's chain, so the
// shared tokens are hashed once and their chain is held once.
type Prefix struct {
	// Tokens is the shared prefix; immutable once generated.
	Tokens []uint64

	// BlockHashes memoizes the hash chain of Tokens for
	// HashBlockTokens-sized blocks, valid like Request.Chain when
	// HashBlockTokens is that size. Only engine.HashesOf writes it.
	BlockHashes     []uint64
	HashBlockTokens int
}

// JCTFunc estimates the JCT of a request at the present moment (it
// consults the prefix cache, so its value changes over time).
type JCTFunc func(r *Request) float64

// Scheduler selects the next request to run. Implementations are not
// goroutine-safe; engines are single-threaded event handlers.
type Scheduler interface {
	// Name identifies the policy.
	Name() string
	// Enqueue adds a request to the waiting queue.
	Enqueue(r *Request)
	// Next removes and returns the request to run now, or nil when the
	// queue is empty. now is the simulated time.
	Next(now float64) *Request
	// Len returns the number of waiting requests.
	Len() int
}

// --- FIFO ---

// FIFO is first-come-first-serve scheduling (the PagedAttention baseline's
// policy). The queue is a shared ring buffer (internal/ringbuf): dequeued
// slots are reused, so the backing array is bounded by the peak queue
// depth — not by the total requests ever enqueued — and it shrinks when
// the queue drains.
type FIFO struct {
	q ringbuf.Ring[*Request]
}

// NewFIFO returns an empty FIFO scheduler.
func NewFIFO() *FIFO { return &FIFO{} }

// Name implements Scheduler.
func (f *FIFO) Name() string { return "fifo" }

// Enqueue implements Scheduler.
func (f *FIFO) Enqueue(r *Request) { f.q.PushBack(r) }

// Len implements Scheduler.
func (f *FIFO) Len() int { return f.q.Len() }

// Next implements Scheduler.
func (f *FIFO) Next(now float64) *Request {
	r, _ := f.q.PopFront()
	return r
}
