package workload

import (
	"testing"

	"repro/internal/sched"
)

// classCounts tallies requests per SLO class.
func classCounts(reqs []*sched.Request) map[sched.Class]int {
	out := make(map[sched.Class]int)
	for _, r := range reqs {
		out[r.Class]++
	}
	return out
}

func TestClassMixComposition(t *testing.T) {
	d := ClassMix(ClassMixConfig{Seed: 7})
	counts := classCounts(d.Requests)
	nb, ni := counts[sched.ClassBatch], counts[sched.ClassInteractive]
	if ni == 0 || nb == 0 {
		t.Fatalf("degenerate mix: interactive=%d batch=%d", ni, nb)
	}
	frac := float64(nb) / float64(nb+ni)
	if frac < 0.15 || frac > 0.35 {
		t.Fatalf("batch fraction %.2f far from the 0.25 default", frac)
	}
	seenUser := make(map[int]sched.Class)
	for i, r := range d.Requests {
		if r.ID != int64(i+1) {
			t.Fatalf("IDs not sequential after shuffle: request %d has ID %d", i, r.ID)
		}
		if r.Class == sched.ClassBatch && r.UserID < batchUserBase {
			t.Fatalf("batch request %d has interactive-range user %d", r.ID, r.UserID)
		}
		if prev, ok := seenUser[r.UserID]; ok && prev != r.Class {
			t.Fatalf("user %d appears in both classes", r.UserID)
		}
		seenUser[r.UserID] = r.Class
		checkPrefixContract(t, r)
		if r.Class == sched.ClassBatch {
			if r.Len() < 6000 || r.Len() > 12000+templateTokens {
				t.Fatalf("batch doc length %d outside configured bounds", r.Len())
			}
			if r.Prefix != nil {
				t.Fatalf("batch request %d declares a Prefix; only the template is shared", r.ID)
			}
		} else if r.Prefix == nil {
			t.Fatalf("interactive request %d lost its user's Prefix", r.ID)
		}
	}
	// The two tenants must interleave, not concatenate: the first quarter
	// of the (shuffled) dataset should already contain both classes.
	head := classCounts(d.Requests[:len(d.Requests)/4])
	if head[sched.ClassBatch] == 0 || head[sched.ClassInteractive] == 0 {
		t.Fatalf("classes not interleaved in dataset head: %v", head)
	}
}

// Seeded determinism: the class-mix generator must be stable across runs —
// identical IDs, users, classes and token streams for one seed, and a
// different interleaving for another.
func TestClassMixDeterministicAcrossRuns(t *testing.T) {
	a := ClassMix(ClassMixConfig{Seed: 42})
	b := ClassMix(ClassMixConfig{Seed: 42})
	if len(a.Requests) != len(b.Requests) {
		t.Fatalf("sizes diverge: %d vs %d", len(a.Requests), len(b.Requests))
	}
	for i := range a.Requests {
		ra, rb := a.Requests[i], b.Requests[i]
		if ra.ID != rb.ID || ra.UserID != rb.UserID || ra.Class != rb.Class || ra.Len() != rb.Len() {
			t.Fatalf("request %d diverges: {%d %d %v %d} vs {%d %d %v %d}",
				i, ra.ID, ra.UserID, ra.Class, ra.Len(), rb.ID, rb.UserID, rb.Class, rb.Len())
		}
		for j := range ra.Tokens {
			if ra.Tokens[j] != rb.Tokens[j] {
				t.Fatalf("request %d token %d diverges", i, j)
			}
		}
	}
	c := ClassMix(ClassMixConfig{Seed: 43})
	same := true
	for i := range a.Requests {
		if i >= len(c.Requests) || a.Requests[i].UserID != c.Requests[i].UserID ||
			a.Requests[i].Class != c.Requests[i].Class || a.Requests[i].Len() != c.Requests[i].Len() {
			same = false
			break
		}
	}
	if same && len(a.Requests) == len(c.Requests) {
		t.Fatal("different seeds produced an identical dataset")
	}
}
