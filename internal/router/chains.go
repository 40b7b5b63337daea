package router

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/kvcache"
)

// chainSet is the multiset of the block-hash chains of the requests routed
// to one instance and not yet completed, kept in lexicographic order:
// chains compare at their first differing hash as uint64, and a proper
// prefix sorts first. The only query is the longest prefix of a chain that
// some member shares, and in a sorted set the member sharing the longest
// prefix with a query sits next to the query's position, so one binary
// search and two common-prefix searches answer it without per-block state.
// The order depends only on hash values, so neither the set nor its
// answers depend on insertion order or on how the chains are split.
//
// Members are pointers to the requests' memoized chains (engine.HashesOf),
// so an insert or delete moves one pointer per later member. The set
// relies on a member's chain not changing while it is a member.
type chainSet struct {
	chains []*kvcache.Chain
}

// compareChains orders chains lexicographically by hash value.
func compareChains(a, b *kvcache.Chain) int {
	if n := kvcache.CommonPrefix(a, b); n < a.Len() && n < b.Len() {
		return cmp.Compare(a.At(n), b.At(n))
	}
	return cmp.Compare(a.Len(), b.Len())
}

// add inserts a chain. A chain of no blocks shares no prefix with
// anything and is skipped.
func (s *chainSet) add(chain *kvcache.Chain) {
	if chain.Len() == 0 {
		return
	}
	i, _ := slices.BinarySearchFunc(s.chains, chain, compareChains)
	s.chains = slices.Insert(s.chains, i, chain)
}

// remove deletes chain, which add inserted: the member that is this very
// pointer, among those with its content, so the set keeps no pointer into
// a completed request. A chain the set does not hold means the router's
// accounting is corrupt, so it panics.
func (s *chainSet) remove(chain *kvcache.Chain) {
	if chain.Len() == 0 {
		return
	}
	i, ok := slices.BinarySearchFunc(s.chains, chain, compareChains)
	for ok && s.chains[i] != chain {
		i++
		ok = i < len(s.chains) && compareChains(s.chains[i], chain) == 0
	}
	if !ok {
		panic(fmt.Sprintf("router: removing a %d-block chain that is not pending", chain.Len()))
	}
	s.chains = slices.Delete(s.chains, i, i+1)
}

// longestPrefix returns how many leading hashes of chain some member
// shares: the longer common prefix with the chain's two neighbours in
// the sorted order.
func (s *chainSet) longestPrefix(chain *kvcache.Chain) int {
	i, _ := slices.BinarySearchFunc(s.chains, chain, compareChains)
	n := 0
	if i < len(s.chains) {
		n = kvcache.CommonPrefix(chain, s.chains[i])
	}
	if i > 0 {
		n = max(n, kvcache.CommonPrefix(chain, s.chains[i-1]))
	}
	return n
}
