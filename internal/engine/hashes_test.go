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

// TestHashesOfEqualsBlockHashes holds HashesOf to the flat chain of every
// generated request. The first pass asks every request for one block size
// before moving to the next, so requests extend a prefix chain another
// request memoized; the second switches block size on each call, so every
// prefix memoized at one size is asked for at another.
func TestHashesOfEqualsBlockHashes(t *testing.T) {
	sizes := []int{16, 1, 17}
	for name, base := range chainDatasets() {
		d := base.Clone()
		check := func(r *sched.Request, bt int) {
			t.Helper()
			want := kvcache.BlockHashes(r.Tokens, bt)
			if got := HashesOf(r, bt); !slices.Equal(got, want) {
				t.Fatalf("%s: request %d at %d-token blocks: HashesOf differs from BlockHashes(Tokens)", name, r.ID, bt)
			}
		}
		for _, bt := range sizes {
			for _, r := range d.Requests {
				check(r, bt)
			}
		}
		for i, r := range d.Requests {
			for j := range sizes {
				check(r, sizes[(i+j)%len(sizes)])
			}
		}
	}
}

// wl1Request is one post-recommendation-shaped request: a 14k-token
// prefix whose chain is already memoized, then a 150-token post.
func wl1Request() *sched.Request {
	rng := rand.New(rand.NewSource(1))
	toks := make([]uint64, 14_000+150)
	for i := range toks {
		toks[i] = rng.Uint64()
	}
	r := &sched.Request{Tokens: toks, Prefix: &sched.Prefix{Tokens: toks[:14_000]}}
	HashesOf(r, 16) // memoizes the prefix's chain
	return r
}

// TestHashesOfAllocs pins a request over a memoized prefix at one
// allocation: the request's own chain.
func TestHashesOfAllocs(t *testing.T) {
	r := wl1Request()
	allocs := testing.AllocsPerRun(100, func() {
		r.BlockHashes = nil
		HashesOf(r, 16)
	})
	if allocs != 1 {
		t.Fatalf("HashesOf over a memoized prefix: %v allocs, want 1", allocs)
	}
}

var chainSink []uint64

// BenchmarkHashesOf builds one post-recommendation-shaped request's chain
// per op over its memoized 14k-token prefix.
func BenchmarkHashesOf(b *testing.B) {
	r := wl1Request()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.BlockHashes = nil
		chainSink = HashesOf(r, 16)
	}
}
