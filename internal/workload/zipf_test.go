package workload

import (
	"sort"
	"testing"
)

func TestSkewedDeterministicAndSkewed(t *testing.T) {
	cfg := SkewedConfig{Users: 32, Requests: 256, Seed: 5}
	d1 := Skewed(cfg)
	d2 := Skewed(cfg)
	if len(d1.Requests) != 256 {
		t.Fatalf("requests = %d", len(d1.Requests))
	}
	if d1.Name != "zipf-skewed" || d1.Users != 32 || d1.RequestsPerUser != 8 {
		t.Fatalf("dataset metadata: %+v", d1)
	}
	// Determinism: same seed, same tokens.
	for i := range d1.Requests {
		a, b := d1.Requests[i], d2.Requests[i]
		if a.UserID != b.UserID || a.Len() != b.Len() || a.Tokens[50] != b.Tokens[50] {
			t.Fatalf("request %d differs between identical seeds", i)
		}
	}
	// Skew: the hottest user must hold well more than the uniform share.
	counts := make(map[int]int)
	for _, r := range d1.Requests {
		counts[r.UserID]++
	}
	var byCount []int
	for _, c := range counts {
		byCount = append(byCount, c)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(byCount)))
	uniform := len(d1.Requests) / cfg.Users
	if byCount[0] < 4*uniform {
		t.Fatalf("hottest user has %d requests, want >= %d (4x uniform share)", byCount[0], 4*uniform)
	}
}

func TestSkewedSharesPrefixPerUser(t *testing.T) {
	d := Skewed(SkewedConfig{Users: 8, Requests: 64, Seed: 1})
	checkPrefixPerUser(t, d)
	// Two requests of the same user share template+profile, differ in post.
	byUser := make(map[int][]int)
	for i, r := range d.Requests {
		byUser[r.UserID] = append(byUser[r.UserID], i)
	}
	checked := false
	for _, idxs := range byUser {
		if len(idxs) < 2 {
			continue
		}
		a, b := d.Requests[idxs[0]], d.Requests[idxs[1]]
		prefix := a.Len() - 150 // PostLen default
		for i := 0; i < prefix; i++ {
			if a.Tokens[i] != b.Tokens[i] {
				t.Fatalf("same-user requests diverge at token %d of %d-token prefix", i, prefix)
			}
		}
		if a.Tokens[prefix] == b.Tokens[prefix] {
			t.Fatal("same-user posts do not differ")
		}
		checked = true
	}
	if !checked {
		t.Fatal("no user with two requests in skewed draw")
	}
	// Different users must not share profile tokens (template is shared).
	var u0, u1 *[]uint64
	for _, idxs := range byUser {
		r := d.Requests[idxs[0]]
		if u0 == nil {
			u0 = &r.Tokens
		} else if u1 == nil {
			u1 = &r.Tokens
			break
		}
	}
	if u1 != nil && (*u0)[templateTokens] == (*u1)[templateTokens] {
		t.Fatal("different users share profile tokens")
	}
}

func TestSkewedRejectsInvalidExponent(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Exponent <= 1 did not panic")
		}
	}()
	Skewed(SkewedConfig{Exponent: 1.0})
}

func TestSkewedArrivals(t *testing.T) {
	d := Skewed(SkewedConfig{Users: 16, Requests: 64, Seed: 2})
	arr, err := AssignPoissonArrivals(d, 10, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(arr) != 64 {
		t.Fatalf("arrivals = %d", len(arr))
	}
	for i := 1; i < len(arr); i++ {
		if arr[i].Time < arr[i-1].Time {
			t.Fatal("arrivals not sorted")
		}
	}
}
