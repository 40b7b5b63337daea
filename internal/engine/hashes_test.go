package engine

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/kvcache"
	"repro/internal/sched"
	"repro/internal/workload"
)

// chainDatasets builds every generator at a small size. Profile lengths
// are drawn, so the declared prefixes do not end on block boundaries.
func chainDatasets() map[string]*workload.Dataset {
	return map[string]*workload.Dataset{
		"post-recommendation": workload.PostRecommendation(workload.PostRecommendationConfig{
			Users: 3, PostsPerUser: 4, ProfileMean: 400, ProfileStd: 150, ProfileMin: 100, ProfileMax: 700, PostLen: 40, Seed: 1,
		}),
		"credit-verification": workload.CreditVerification(workload.CreditVerificationConfig{
			Users: 4, HistoryMin: 100, HistoryMax: 600, Seed: 2,
		}),
		"zipf-skewed": workload.Skewed(workload.SkewedConfig{
			Users: 8, Requests: 40, ProfileMean: 300, ProfileStd: 100, ProfileMin: 50, ProfileMax: 600, PostLen: 25, Seed: 3,
		}),
		"class-mix": workload.ClassMix(workload.ClassMixConfig{
			Interactive: workload.SkewedConfig{Users: 8, Requests: 40, ProfileMean: 300, ProfileStd: 100, ProfileMin: 50, ProfileMax: 600, PostLen: 25},
			BatchLenMin: 100, BatchLenMax: 500, Seed: 4,
		}),
	}
}

// TestHashesOfEqualsBlockHashes holds the content of HashesOf to the flat
// chain of every generated request. The first pass asks every request for
// one block size before moving to the next, so requests reference a
// prefix chain another request memoized, and it holds a request with a
// Prefix to a chain whose Shared part is the Prefix's own memo. The
// second switches block size on each call, so every prefix memoized at
// one size is asked for at another, and a request's memo may outlive the
// Prefix memo it references: only content is checked there.
func TestHashesOfEqualsBlockHashes(t *testing.T) {
	sizes := []int{16, 1, 17}
	for name, base := range chainDatasets() {
		d := base.Clone()
		check := func(r *sched.Request, bt int, shares bool) {
			t.Helper()
			c := HashesOf(r, bt)
			want := kvcache.BlockHashes(r.Tokens, bt)
			if got := append(slices.Clone(c.Shared), c.Own...); !slices.Equal(got, want) {
				t.Fatalf("%s: request %d at %d-token blocks: HashesOf differs from BlockHashes(Tokens)", name, r.ID, bt)
			}
			if p := r.Prefix; shares && p != nil && (p.HashBlockTokens != bt || !sameArray(c.Shared, p.BlockHashes)) {
				t.Fatalf("%s: request %d at %d-token blocks: the chain's shared part is not its Prefix's memo", name, r.ID, bt)
			}
		}
		for _, bt := range sizes {
			for _, r := range d.Requests {
				check(r, bt, true)
			}
		}
		for i, r := range d.Requests {
			for j := range sizes {
				check(r, sizes[(i+j)%len(sizes)], false)
			}
		}
	}
}

// sameArray reports whether a and b are one slice: the same length over
// the same array.
func sameArray(a, b []uint64) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

// wl1Request is one post-recommendation-shaped request: a 14k-token
// prefix whose chain is already memoized, then a post of postLen tokens.
func wl1Request(postLen int) *sched.Request {
	rng := rand.New(rand.NewSource(1))
	toks := make([]uint64, 14_000+postLen)
	for i := range toks {
		toks[i] = rng.Uint64()
	}
	r := &sched.Request{Tokens: toks, Prefix: &sched.Prefix{Tokens: toks[:14_000]}}
	HashesOf(r, 16) // memoizes the prefix's chain
	return r
}

// TestHashesOfAllocs pins a request over a memoized prefix at one
// allocation, its own part, with no copy of the prefix's chain; and at
// none when no full block follows the prefix (the 14k-token prefix is
// 875 whole blocks, and a 6-token post completes none).
func TestHashesOfAllocs(t *testing.T) {
	for _, tc := range []struct{ post, want int }{{150, 1}, {6, 0}} {
		r := wl1Request(tc.post)
		allocs := testing.AllocsPerRun(100, func() {
			r.HashBlockTokens = 0
			HashesOf(r, 16)
		})
		if allocs != float64(tc.want) {
			t.Fatalf("HashesOf with a %d-token post over a memoized prefix: %v allocs, want %d", tc.post, allocs, tc.want)
		}
	}
}

var chainSink *kvcache.Chain

// BenchmarkHashesOf builds one post-recommendation-shaped request's chain
// per op over its memoized 14k-token prefix.
func BenchmarkHashesOf(b *testing.B) {
	r := wl1Request(150)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.HashBlockTokens = 0
		chainSink = HashesOf(r, 16)
	}
}
