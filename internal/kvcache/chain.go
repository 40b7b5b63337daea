package kvcache

// Chain is a root-anchored block-hash chain, the hashes BlockHashes
// returns for some tokens, held in two parts: Shared, a leading run of the
// chain that another owner holds (a shared prompt prefix's memoized
// chain), followed by Own, the hashes of the blocks after it. Requests that
// share a prefix reference its chain instead of copying it, so a chain
// costs only its own blocks.
//
// A chain means its content: every function here treats two chains with
// equal hashes alike, whatever their split. Neither part is written
// through a Chain, so a Chain may alias its parts freely; the caller keeps
// them unchanged while any Chain refers to them. Functions take *Chain so
// the two slice headers are passed by one pointer.
type Chain struct {
	Shared []uint64
	Own    []uint64
}

// Len returns the chain's block count.
func (c *Chain) Len() int { return len(c.Shared) + len(c.Own) }

// At returns the hash of block i.
func (c *Chain) At(i int) uint64 {
	if i < len(c.Shared) {
		return c.Shared[i]
	}
	return c.Own[i-len(c.Shared)]
}

// after returns the chain's blocks from block n on, as the rest of Shared
// and then the rest of Own.
func (c *Chain) after(n int) (shared, own []uint64) {
	if n < len(c.Shared) {
		return c.Shared[n:], c.Own
	}
	return nil, c.Own[n-len(c.Shared):]
}

// ExtendBlockHashes returns the chain of tokens at blockTokens-sized
// blocks given prefix, the chain BlockHashes returns for some leading
// part of tokens at the same block size. The result's Shared is prefix
// itself, not a copy, and its Own holds the hashes of the full blocks
// after it, so tokens' first len(prefix) blocks are never read. The
// caller vouches for prefix: a chain of other tokens, or of another block
// size, yields a wrong chain.
func ExtendBlockHashes(prefix, tokens []uint64, blockTokens int) Chain {
	if blockTokens <= 0 {
		panic("kvcache: blockTokens must be positive")
	}
	blocks := len(tokens) / blockTokens
	if len(prefix) > blocks {
		panic("kvcache: prefix chain is longer than the tokens' chain")
	}
	own := make([]uint64, blocks-len(prefix))
	var parent uint64
	if n := len(prefix); n > 0 {
		parent = prefix[n-1]
	}
	for k := range own {
		i := len(prefix) + k
		h := hashBlock(parent, tokens[i*blockTokens:(i+1)*blockTokens])
		if h == 0 {
			h = 1 // 0 is reserved for "no parent"
		}
		parent = h
		own[k] = h
	}
	return Chain{Shared: prefix, Own: own}
}

// CommonPrefix returns how many leading hashes two chains share. Each
// block's hash is seeded with its parent's, so equality is prefix-closed
// — a.At(i) == b.At(i) implies a.At(j) == b.At(j) for every j < i — and
// CommonPrefix binary-searches for the first differing block in
// O(log min(a.Len(), b.Len())) probes. Chains that share one Shared
// slice compare only their Own parts; chains with Shared parts of one
// length compare each part flat.
func CommonPrefix(a, b *Chain) int {
	as, bs := a.Shared, b.Shared
	if len(as) == len(bs) && (len(as) == 0 || &as[0] == &bs[0]) {
		return len(as) + commonPrefix(a.Own, b.Own)
	}
	n := commonPrefix(as, bs)
	if n < len(as) && n < len(bs) {
		return n
	}
	if len(as) == len(bs) {
		return n + commonPrefix(a.Own, b.Own)
	}
	// One Shared part is a proper prefix of the other: search the rest,
	// where one chain's Own faces the other's Shared, block by index.
	lo, hi := n, min(a.Len(), b.Len())
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if a.At(mid) == b.At(mid) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// commonPrefix is CommonPrefix over two flat chains.
func commonPrefix(a, b []uint64) int {
	lo, hi := 0, min(len(a), len(b))
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if a[mid] == b[mid] {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
