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
// answers depend on insertion order.
type chainSet struct {
	chains [][]uint64
}

// compareChains orders chains lexicographically by hash value.
func compareChains(a, b []uint64) int {
	if n := kvcache.CommonPrefix(a, b); n < len(a) && n < len(b) {
		return cmp.Compare(a[n], b[n])
	}
	return cmp.Compare(len(a), len(b))
}

// add inserts a chain. A chain of no blocks shares no prefix with
// anything and is skipped. The set keeps the slice, which must not be
// mutated while it is a member.
func (s *chainSet) add(chain []uint64) {
	if len(chain) == 0 {
		return
	}
	i, _ := slices.BinarySearchFunc(s.chains, chain, compareChains)
	s.chains = slices.Insert(s.chains, i, chain)
}

// remove deletes one copy of a chain add inserted. A chain the set does
// not hold means the router's accounting is corrupt, so it panics.
func (s *chainSet) remove(chain []uint64) {
	if len(chain) == 0 {
		return
	}
	i, ok := slices.BinarySearchFunc(s.chains, chain, compareChains)
	if !ok {
		panic(fmt.Sprintf("router: removing a %d-block chain that is not pending", len(chain)))
	}
	s.chains = slices.Delete(s.chains, i, i+1)
}

// longestPrefix returns how many leading hashes of chain some member
// shares: the longer common prefix with the chain's two neighbours in
// the sorted order.
func (s *chainSet) longestPrefix(chain []uint64) int {
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
