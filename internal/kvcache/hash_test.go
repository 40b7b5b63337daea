package kvcache

import (
	"math/rand"
	"slices"
	"testing"
)

const hashBlockTokens = 16

// randTokens draws n tokens over the full 64-bit range.
func randTokens(rng *rand.Rand, n int) []uint64 {
	out := make([]uint64, n)
	for i := range out {
		out[i] = rng.Uint64()
	}
	return out
}

func TestBlockHashesSharedPrefix(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		shared := rng.Intn(8)
		prefix := randTokens(rng, shared*hashBlockTokens)
		a := append(slices.Clone(prefix), randTokens(rng, (1+rng.Intn(8))*hashBlockTokens)...)
		b := append(slices.Clone(prefix), randTokens(rng, (1+rng.Intn(8))*hashBlockTokens)...)
		ha, hb := BlockHashes(a, hashBlockTokens), BlockHashes(b, hashBlockTokens)
		if !slices.Equal(ha[:shared], hb[:shared]) {
			t.Fatalf("trial %d: %d equal leading blocks hash differently", trial, shared)
		}
		if ha[shared] == hb[shared] {
			t.Fatalf("trial %d: first differing block %d hashes equal", trial, shared)
		}
	}
}

func TestBlockHashesTokenChangePropagates(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(16)
		toks := randTokens(rng, n*hashBlockTokens)
		base := BlockHashes(toks, hashBlockTokens)
		blk := rng.Intn(n)
		changed := slices.Clone(toks)
		changed[blk*hashBlockTokens+rng.Intn(hashBlockTokens)] ^= 1 + uint64(rng.Int63())
		got := BlockHashes(changed, hashBlockTokens)
		if !slices.Equal(got[:blk], base[:blk]) {
			t.Fatalf("trial %d: changing block %d moved an earlier hash", trial, blk)
		}
		for i := blk; i < n; i++ {
			if got[i] == base[i] {
				t.Fatalf("trial %d: changing block %d left hash %d unchanged", trial, blk, i)
			}
		}
	}
}

func TestBlockHashesNeverZero(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, toks := range [][]uint64{
		make([]uint64, 64*hashBlockTokens), // all-zero tokens
		seq(0, 64*hashBlockTokens),
		randTokens(rng, 4096*hashBlockTokens),
	} {
		for i, h := range BlockHashes(toks, hashBlockTokens) {
			if h == 0 {
				t.Fatalf("block %d hashes to the reserved 0", i)
			}
		}
	}
}

func TestBlockHashesIgnorePartialTail(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	toks := randTokens(rng, 5*hashBlockTokens+hashBlockTokens-1)
	full := BlockHashes(toks[:5*hashBlockTokens], hashBlockTokens)
	for tail := 1; tail < hashBlockTokens; tail++ {
		got := BlockHashes(toks[:5*hashBlockTokens+tail], hashBlockTokens)
		if !slices.Equal(got, full) {
			t.Fatalf("a %d-token partial tail changed the chain: %x vs %x", tail, got, full)
		}
	}
	if got := BlockHashes(toks[:hashBlockTokens-1], hashBlockTokens); len(got) != 0 {
		t.Fatalf("a sub-block sequence hashed to %d blocks", len(got))
	}
}

// TestBlockHashesSingleBitFlips flips every bit of every token of sampled
// blocks. Block sizes 1 and 7 also cover the words left over after the
// kernel's four-token stripes.
func TestBlockHashesSingleBitFlips(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, bt := range []int{hashBlockTokens, 1, 7} {
		for sample := 0; sample < 8; sample++ {
			n := 1 + rng.Intn(8)
			toks := randTokens(rng, n*bt)
			base := BlockHashes(toks, bt)
			blk := rng.Intn(n)
			for pos := blk * bt; pos < (blk+1)*bt; pos++ {
				for bit := 0; bit < 64; bit++ {
					toks[pos] ^= 1 << bit
					if got := BlockHashes(toks, bt); got[blk] == base[blk] {
						t.Fatalf("%d-token blocks: flipping bit %d of token %d left block %d's hash unchanged", bt, bit, pos, blk)
					}
					toks[pos] ^= 1 << bit
				}
			}
		}
	}
}

var hashSink []uint64

// BenchmarkBlockHashes hashes one WL1-sized (14k-token) prompt per op.
func BenchmarkBlockHashes(b *testing.B) {
	toks := randTokens(rand.New(rand.NewSource(1)), 14_000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hashSink = BlockHashes(toks, hashBlockTokens)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(toks)), "ns/token")
}
