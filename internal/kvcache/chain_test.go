package kvcache

// Two-part chains: a chain's blocks may be split between a Shared part,
// which other chains may reference too, and an Own part. The split must
// change nothing observable, so these tests run the same operation
// scripts on flat chains and on the same chains split at fuzzed points,
// and compare every result (runTwinOps).

import (
	"math/rand"
	"slices"
	"testing"
)

// head returns c's first n blocks as a chain over c's parts.
func head(c *Chain, n int) *Chain {
	if n <= len(c.Shared) {
		return &Chain{Shared: c.Shared[:n]}
	}
	return &Chain{Shared: c.Shared, Own: c.Own[:n-len(c.Shared)]}
}

// splitChains returns closureChains split where split says, one byte per
// chain (missing bytes count as 0). A byte s selects, modulo the chain's
// length plus 2, a split after block s (0 and the chain's end included),
// or, for the last value, the chain's user profile as Shared: one array
// that all three of the user's chains reference.
func splitChains(split []byte) []*Chain {
	flat := closureChains()
	profiles := make(map[int][]uint64)
	var chains []*Chain
	for c, h := range flat {
		s := 0
		if c < len(split) {
			s = int(split[c]) % (len(h) + 2)
		}
		if s <= len(h) {
			chains = append(chains, &Chain{Shared: slices.Clip(h[:s]), Own: h[s:]})
			continue
		}
		user := c / 3 // closureChains: three branches per user
		n := 4 + user // the user's profile blocks
		if profiles[user] == nil {
			profiles[user] = slices.Clone(h[:n])
		}
		chains = append(chains, &Chain{Shared: profiles[user], Own: h[n:]})
	}
	return chains
}

// checkCommonPrefix holds CommonPrefix over every pair of split chains,
// and of their heads, to the common prefix of their flat contents.
func checkCommonPrefix(t *testing.T, split []*Chain) {
	flat := closureChains()
	for a := range split {
		for b := range split {
			for _, n := range []int{split[a].Len(), split[a].Len() - 1, len(split[a].Shared)} {
				if n < 0 {
					continue
				}
				ca := head(split[a], n)
				if got, want := CommonPrefix(ca, split[b]), commonPrefix(flat[a][:n], flat[b]); got != want {
					t.Fatalf("CommonPrefix(chain %d's first %d blocks, chain %d) = %d, want %d", a, n, b, got, want)
				}
			}
		}
	}
}

// runSplitOps compares a script on flat chains with the same script on
// chains split as split says, host tier off and on.
func runSplitOps(t *testing.T, split, ops []byte) {
	chains := splitChains(split)
	checkCommonPrefix(t, chains)
	for _, host := range []bool{false, true} {
		runTwinOps(t, host, [2][]*Chain{flatChains(), chains}, ops)
	}
}

func TestSplitChainsMatchFlat(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	split := make([]byte, 9)
	for seed := int64(0); seed < 100; seed++ {
		rng.Read(split)
		runSplitOps(t, split, closureOps(seed))
	}
}

func FuzzSplitChains(f *testing.F) {
	for seed := int64(0); seed < 8; seed++ {
		split := make([]byte, 9)
		rand.New(rand.NewSource(seed)).Read(split)
		f.Add(split, closureOps(seed)[:200])
	}
	f.Fuzz(runSplitOps)
}

// TestCommonPrefixLayouts holds CommonPrefix to the flat common prefix
// for chains of equal or related content in every layout: one Shared
// array referenced by both, equal Shared parts in two arrays, Shared
// parts of different lengths, and no Shared part.
func TestCommonPrefixLayouts(t *testing.T) {
	a := BlockHashes(seq(1, 10*16), 16)
	b := append(slices.Clone(a[:6]), BlockHashes(seq(2, 4*16), 16)...) // a's first 6 blocks, then 4 others
	profile := slices.Clone(a[:5])
	layouts := func(h []uint64) []*Chain {
		out := []*Chain{{Own: h}, {Shared: h}}
		if len(h) >= len(profile) {
			out = append(out, &Chain{Shared: profile, Own: h[5:]}, &Chain{Shared: slices.Clone(h[:5]), Own: h[5:]})
		}
		for _, s := range []int{1, 3, 7} {
			if s <= len(h) {
				out = append(out, &Chain{Shared: h[:s], Own: h[s:]})
			}
		}
		return out
	}
	for _, x := range [][]uint64{a, a[:5], a[:8], a[:2]} {
		for _, y := range [][]uint64{a, b, a[:5], a[:9]} {
			want := commonPrefix(x, y)
			for _, cx := range layouts(x) {
				for _, cy := range layouts(y) {
					if got := CommonPrefix(cx, cy); got != want {
						t.Fatalf("CommonPrefix of a %d-block chain split %d+%d and a %d-block chain split %d+%d = %d, want %d",
							cx.Len(), len(cx.Shared), len(cx.Own), cy.Len(), len(cy.Shared), len(cy.Own), got, want)
					}
				}
			}
		}
	}
}
