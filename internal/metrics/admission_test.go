package metrics

import (
	"sync"
	"testing"
)

func TestAdmissionCounters(t *testing.T) {
	var a Admission
	if c := a.Policy("affinity"); c.Accepted != 0 || c.Rejected != 0 {
		t.Fatalf("zero-value tally %+v", c)
	}
	if rate := a.Policy("affinity").AcceptRate(); rate != 1 {
		t.Fatalf("empty accept rate = %v, want 1", rate)
	}
	for i := 0; i < 3; i++ {
		a.AcceptClass("affinity", "interactive")
	}
	a.RejectClass("affinity", "batch")
	a.AcceptClass("userhash", "interactive")
	c := a.Policy("affinity")
	if c.Accepted != 3 || c.Rejected != 1 || c.Total() != 4 {
		t.Fatalf("affinity tally %+v", c)
	}
	if rate := c.AcceptRate(); rate != 0.75 {
		t.Fatalf("accept rate = %v, want 0.75", rate)
	}
	snap := a.Snapshot()
	if len(snap) != 2 || snap["userhash"].Accepted != 1 {
		t.Fatalf("snapshot %+v", snap)
	}
	// Snapshot is a copy.
	snap["userhash"] = AdmissionCount{Accepted: 99}
	if a.Policy("userhash").Accepted != 1 {
		t.Fatal("snapshot aliases internal state")
	}
}

// Per-class tallies stratify the per-policy aggregate: class counts sum
// to the policy total.
func TestAdmissionPerClass(t *testing.T) {
	var a Admission
	a.AcceptClass("affinity", "interactive")
	a.AcceptClass("affinity", "interactive")
	a.AcceptClass("affinity", "batch")
	a.RejectClass("affinity", "batch")
	if c := a.Class("affinity", "interactive"); c.Accepted != 2 || c.Rejected != 0 {
		t.Fatalf("interactive tally %+v", c)
	}
	if c := a.Class("affinity", "batch"); c.Accepted != 1 || c.Rejected != 1 {
		t.Fatalf("batch tally %+v", c)
	}
	if agg := a.Policy("affinity"); agg.Accepted != 3 || agg.Rejected != 1 {
		t.Fatalf("aggregate %+v does not sum the classes", agg)
	}
	snap := a.ClassSnapshot()
	if snap["affinity"]["batch"].Rejected != 1 {
		t.Fatalf("class snapshot %+v", snap)
	}
	snap["affinity"]["batch"] = AdmissionCount{Rejected: 99}
	if a.Class("affinity", "batch").Rejected != 1 {
		t.Fatal("class snapshot aliases internal state")
	}
}

func TestAdmissionConcurrent(t *testing.T) {
	var a Admission
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				a.AcceptClass("p", "interactive")
				a.RejectClass("p", "batch")
			}
		}()
	}
	wg.Wait()
	c := a.Policy("p")
	if c.Accepted != 8000 || c.Rejected != 8000 {
		t.Fatalf("concurrent tally %+v", c)
	}
}
