package workload

import (
	"testing"

	"repro/internal/kvcache"
	"repro/internal/sched"
)

func TestPostRecommendationTable1(t *testing.T) {
	d := PostRecommendation(PostRecommendationConfig{Seed: 1})
	if d.Users != 20 || d.RequestsPerUser != 50 {
		t.Fatalf("users=%d rpu=%d", d.Users, d.RequestsPerUser)
	}
	if len(d.Requests) != 1000 {
		t.Fatalf("requests = %d, want 1000", len(d.Requests))
	}
	// Table 1: ~14M total tokens.
	total := d.TotalTokens()
	if total < 11_000_000 || total > 18_000_000 {
		t.Fatalf("total tokens = %d, want ~14M", total)
	}
	for _, r := range d.Requests {
		n := r.Len() - templateTokens
		if n < 11_000+150 || n > 17_000+150 {
			t.Fatalf("request length %d outside profile+post bounds", n)
		}
	}
}

func TestPostRecommendationPrefixSharing(t *testing.T) {
	d := PostRecommendation(PostRecommendationConfig{Seed: 2})
	checkPrefixPerUser(t, d)
	// Two requests of the same user share template+profile; different
	// users share only the template.
	r1, r2 := d.Requests[0], d.Requests[1]
	if r1.UserID != r2.UserID {
		t.Fatal("first two requests should be same user")
	}
	share := commonPrefix(r1.Tokens, r2.Tokens)
	if share < 11000 {
		t.Fatalf("same-user shared prefix = %d, want >= profile length", share)
	}
	other := d.Requests[len(d.Requests)-1]
	if other.UserID == r1.UserID {
		t.Fatal("last request should be a different user")
	}
	cross := commonPrefix(r1.Tokens, other.Tokens)
	if cross != templateTokens {
		t.Fatalf("cross-user shared prefix = %d, want template only (%d)", cross, templateTokens)
	}
}

// checkPrefixPerUser checks that every request declares a Prefix its
// tokens start with, that one user's requests share one *Prefix, and that
// different users' do not.
func checkPrefixPerUser(t *testing.T, d *Dataset) {
	t.Helper()
	byUser := make(map[int]*sched.Prefix)
	owner := make(map[*sched.Prefix]int)
	for _, r := range d.Requests {
		checkPrefixContract(t, r)
		if r.Prefix == nil {
			t.Fatalf("request %d declares no Prefix", r.ID)
		}
		if p, ok := byUser[r.UserID]; ok && p != r.Prefix {
			t.Fatalf("user %d's requests hold different *Prefix values", r.UserID)
		}
		if u, ok := owner[r.Prefix]; ok && u != r.UserID {
			t.Fatalf("users %d and %d share one *Prefix", u, r.UserID)
		}
		byUser[r.UserID], owner[r.Prefix] = r.Prefix, r.UserID
	}
}

// checkPrefixContract checks that a request with a Prefix starts with it.
func checkPrefixContract(t *testing.T, r *sched.Request) {
	t.Helper()
	if r.Prefix == nil {
		return
	}
	if n := len(r.Prefix.Tokens); n == 0 || n > len(r.Tokens) || commonPrefix(r.Tokens, r.Prefix.Tokens) != n {
		t.Fatalf("request %d does not start with its %d-token Prefix", r.ID, n)
	}
}

func commonPrefix(a, b []uint64) int {
	n := 0
	for n < len(a) && n < len(b) && a[n] == b[n] {
		n++
	}
	return n
}

func TestCreditVerificationTable1(t *testing.T) {
	d := CreditVerification(CreditVerificationConfig{Seed: 3})
	if d.Users != 60 || len(d.Requests) != 60 || d.RequestsPerUser != 1 {
		t.Fatalf("users=%d requests=%d", d.Users, len(d.Requests))
	}
	total := d.TotalTokens()
	if total < 2_400_000 || total > 3_700_000 {
		t.Fatalf("total tokens = %d, want ~3M", total)
	}
	for _, r := range d.Requests {
		n := r.Len() - templateTokens
		if n < 40_000 || n > 60_000 {
			t.Fatalf("history length %d outside [40k,60k]", n)
		}
	}
	if d.MaxLen > 60_000+templateTokens {
		t.Fatalf("MaxLen %d too large", d.MaxLen)
	}
	for _, r := range d.Requests {
		if r.Prefix != nil {
			t.Fatalf("credit request %d declares a Prefix; only the template is shared", r.ID)
		}
	}
}

func TestDeterministicGeneration(t *testing.T) {
	a := PostRecommendation(PostRecommendationConfig{Seed: 5})
	b := PostRecommendation(PostRecommendationConfig{Seed: 5})
	if a.TotalTokens() != b.TotalTokens() {
		t.Fatal("same seed, different datasets")
	}
	for i := range a.Requests {
		if a.Requests[i].Len() != b.Requests[i].Len() {
			t.Fatal("request lengths differ")
		}
	}
	c := PostRecommendation(PostRecommendationConfig{Seed: 6})
	if a.TotalTokens() == c.TotalTokens() {
		t.Fatal("different seeds produced identical datasets (suspicious)")
	}
}

func TestAssignPoissonArrivals(t *testing.T) {
	d := PostRecommendation(PostRecommendationConfig{Seed: 7})
	arrivals, err := AssignPoissonArrivals(d, 10, 42)
	if err != nil {
		t.Fatal(err)
	}
	if len(arrivals) != len(d.Requests) {
		t.Fatalf("arrivals = %d, want %d", len(arrivals), len(d.Requests))
	}
	// Sorted by time.
	byUser := make(map[int]float64)
	for i := 1; i < len(arrivals); i++ {
		if arrivals[i].Time < arrivals[i-1].Time {
			t.Fatal("arrivals not sorted")
		}
	}
	// All requests of one user land within the burst span of the user's
	// arrival.
	for _, a := range arrivals {
		if first, ok := byUser[a.Req.UserID]; !ok || a.Time < first {
			byUser[a.Req.UserID] = a.Time
		}
	}
	for _, a := range arrivals {
		if a.Time-byUser[a.Req.UserID] > DefaultBurstSpan+1e-9 {
			t.Fatalf("user %d request at %.2f exceeds burst span from %.2f",
				a.Req.UserID, a.Time, byUser[a.Req.UserID])
		}
	}
	// Mean inter-user gap ≈ RequestsPerUser/qps = 5s.
	span := arrivals[len(arrivals)-1].Time - arrivals[0].Time - DefaultBurstSpan
	meanGap := span / float64(d.Users-1)
	if meanGap < 2.5 || meanGap > 10 {
		t.Fatalf("mean user gap = %.2fs, want ~5s", meanGap)
	}
}

func TestZeroSpanSimultaneousBurst(t *testing.T) {
	d := PostRecommendation(PostRecommendationConfig{Users: 3, Seed: 7})
	arrivals, err := AssignPoissonArrivalsSpan(d, 10, 0, 42)
	if err != nil {
		t.Fatal(err)
	}
	times := map[int]float64{}
	for _, a := range arrivals {
		if tt, ok := times[a.Req.UserID]; ok && tt != a.Time {
			t.Fatal("zero span should make a user's requests simultaneous")
		}
		times[a.Req.UserID] = a.Time
	}
}

func TestNegativeSpanRejected(t *testing.T) {
	d := CreditVerification(CreditVerificationConfig{Users: 2, Seed: 1})
	if _, err := AssignPoissonArrivalsSpan(d, 1, -1, 1); err == nil {
		t.Fatal("negative span accepted")
	}
}

func TestAssignPoissonArrivalsRejectsBadQPS(t *testing.T) {
	d := CreditVerification(CreditVerificationConfig{Seed: 1})
	if _, err := AssignPoissonArrivals(d, 0, 1); err == nil {
		t.Fatal("qps=0 accepted")
	}
}

func TestCustomConfigRespected(t *testing.T) {
	d := PostRecommendation(PostRecommendationConfig{Users: 3, PostsPerUser: 2, Seed: 1})
	if d.Users != 3 || len(d.Requests) != 6 {
		t.Fatalf("custom config ignored: users=%d requests=%d", d.Users, len(d.Requests))
	}
	c := CreditVerification(CreditVerificationConfig{Users: 5, HistoryMin: 100, HistoryMax: 200, Seed: 1})
	if len(c.Requests) != 5 {
		t.Fatalf("credit custom config ignored")
	}
	for _, r := range c.Requests {
		if n := r.Len() - templateTokens; n < 100 || n > 200 {
			t.Fatalf("history length %d outside custom bounds", n)
		}
	}
}

func TestCloneIsolatesRequestMutation(t *testing.T) {
	base := PostRecommendation(PostRecommendationConfig{Users: 3, PostsPerUser: 2, Seed: 1})
	c1, c2 := base.Clone(), base.Clone()
	if len(c1.Requests) != len(base.Requests) {
		t.Fatalf("clone has %d requests, base %d", len(c1.Requests), len(base.Requests))
	}
	for i, r := range c1.Requests {
		if r == base.Requests[i] {
			t.Fatalf("clone shares request struct %d with base", i)
		}
		// Token storage is shared (immutable), not copied.
		if len(r.Tokens) > 0 && &r.Tokens[0] != &base.Requests[i].Tokens[0] {
			t.Fatalf("clone copied token storage of request %d", i)
		}
	}
	// Each distinct base Prefix maps to one fresh Prefix per clone, over
	// the base's token storage.
	fresh := make(map[*sched.Prefix]*sched.Prefix)
	for i, r := range c1.Requests {
		bp := base.Requests[i].Prefix
		if p, ok := fresh[bp]; ok {
			if r.Prefix != p {
				t.Fatalf("request %d: one base Prefix became two in the clone", i)
			}
			continue
		}
		if r.Prefix == nil || r.Prefix == bp {
			t.Fatalf("request %d: clone has no fresh Prefix", i)
		}
		for _, p := range fresh {
			if p == r.Prefix {
				t.Fatalf("request %d: two base prefixes share one clone Prefix", i)
			}
		}
		if &r.Prefix.Tokens[0] != &bp.Tokens[0] || len(r.Prefix.Tokens) != len(bp.Tokens) {
			t.Fatalf("request %d: clone Prefix does not share the base's token storage", i)
		}
		fresh[bp] = r.Prefix
	}
	if len(fresh) != base.Users {
		t.Fatalf("clone has %d prefixes, want one per user (%d)", len(fresh), base.Users)
	}
	// Mutating a clone (what a run does) must not leak into base or
	// sibling clones.
	c1.Requests[0].ArrivalTime = 42
	c1.Requests[0].Chain = kvcache.Chain{Shared: []uint64{1, 2}, Own: []uint64{3}}
	c1.Requests[0].HashBlockTokens = 16
	c1.Requests[0].Prefix.BlockHashes = []uint64{1, 2}
	c1.Requests[0].Prefix.HashBlockTokens = 16
	for _, d := range []*Dataset{base, c2} {
		if r := d.Requests[0]; r.ArrivalTime == 42 || r.Chain.Len() != 0 || r.HashBlockTokens != 0 || r.Prefix.BlockHashes != nil || r.Prefix.HashBlockTokens != 0 {
			t.Fatal("clone mutation leaked into base or a sibling clone")
		}
	}
	// A clone of a hashed dataset starts unhashed.
	for _, r := range c1.Clone().Requests {
		if r.Chain.Len() != 0 || r.HashBlockTokens != 0 || r.Prefix.BlockHashes != nil || r.Prefix.HashBlockTokens != 0 {
			t.Fatalf("clone of request %d copied a memoized chain", r.ID)
		}
	}
}
