// Package kvcache implements a paged, content-addressed KV cache with
// prefix caching, LRU eviction and PrefillOnly's suffix discarding.
//
// Tokens are grouped into fixed-size blocks (vLLM-style paging). A block's
// identity is the hash of its tokens chained with its parent block's hash,
// so two requests that share a token prefix share cache blocks. Capacity is
// tracked in bytes of full-depth KV cache; eviction is LRU over unpinned
// blocks, and a block can only be evicted after every block chained below
// it (no dangling prefixes).
package kvcache

import (
	"fmt"
	"math/bits"
)

// Stats counts cache activity since construction.
type Stats struct {
	// LookupTokens is the total tokens presented to Lookup.
	LookupTokens int64
	// HitTokens is the tokens Lookup found cached.
	HitTokens int64
	// InsertedBlocks counts blocks newly inserted.
	InsertedBlocks int64
	// EvictedBlocks counts blocks evicted to make space.
	EvictedBlocks int64
	// OffloadedBlocks counts evicted blocks demoted to the host tier.
	OffloadedBlocks int64
	// RejectedBlocks counts blocks an insertion dropped because space
	// could not be reclaimed (everything else was pinned or hotter): the
	// first block that did not fit and the rest of its chain.
	RejectedBlocks int64
}

// Add accumulates another pool's counters into s.
func (s *Stats) Add(o Stats) {
	s.LookupTokens += o.LookupTokens
	s.HitTokens += o.HitTokens
	s.InsertedBlocks += o.InsertedBlocks
	s.EvictedBlocks += o.EvictedBlocks
	s.OffloadedBlocks += o.OffloadedBlocks
	s.RejectedBlocks += o.RejectedBlocks
}

// HitRate returns the fraction of looked-up tokens served from cache.
func (s Stats) HitRate() float64 {
	if s.LookupTokens == 0 {
		return 0
	}
	return float64(s.HitTokens) / float64(s.LookupTokens)
}

// block is one cached block, held by value in the Manager's slab and
// addressed by its slot there. A free slot has depth 0.
type block struct {
	hash     uint64
	lastUsed float64
	parent   int32 // parent's slot; -1 for a chain's first block
	depth    int32 // 1-based chain position
	children int32 // blocks that chain onto this one
	pins     int32
	heapIdx  int32 // position in the LRU heap; -1 when not evictable
}

// Manager is a single simulated device's (or engine's) prefix cache.
// It is not goroutine-safe; engines are single-threaded event handlers.
//
// The GPU tier holds no pointers: blocks live in a slab addressed by
// int32 slots and recycled through a free list, an open-addressing table
// maps block hashes to slots, and the LRU heap and the pending change
// lists hold slots or hashes. Once the slab and table have grown to the
// pool's size, an insert allocates nothing and the GC has nothing in the
// cache to scan.
//
// A hit costs O(log n) index probes for an n-block chain, not one per
// block. LookupH, PinH and InsertH find a chain's cached prefix by binary
// search, as PeekH does, and touch only the prefix's deepest block:
//   - Pinning that block protects the whole prefix, because a block with
//     children is never evictable.
//   - Recency rule: a block's recency is the latest timestamp of any
//     operation that touched it or a block below it. Only the deepest
//     block is stamped, and remove folds a block's timestamp into its
//     parent's with max before the parent can become evictable. So every
//     block in the LRU heap, which has nothing below it, carries exactly
//     the timestamp a stamp of every block of each touched prefix would
//     have left, and eviction order is the same.
//   - Precondition: timestamps never decrease from one operation to the
//     next, as an engine's sim clock guarantees. An earlier stamp does not
//     displace a later one already folded in.
//   - Chains are root-anchored, as BlockHashes returns them. InsertH
//     trusts this: it chains its first missing block onto the cached
//     prefix's deepest block without probing the blocks after it.
type Manager struct {
	blockTokens   int
	bytesPerBlock int64
	capacity      int64
	used          int64
	reserved      int64
	pinned        int // PinH handles holding a pin and not yet released

	slab  []block
	free  []int32 // slab slots not holding a block
	index blockIndex
	lru   lruHeap
	host  *hostTier // nil when offloading is disabled
	stats Stats

	subs    []func(ChangeEvent)
	pending ChangeEvent
}

// ChangeEvent describes the cache-membership changes of one operation:
// the block hashes newly inserted into the GPU tier and those evicted
// from it. Pins, unpins and LRU refreshes do not change membership and
// are not reported. The slices belong to the Manager and are reused by
// its next operation, so a subscriber must copy whatever it keeps.
type ChangeEvent struct {
	Inserted []uint64
	Evicted  []uint64
}

// Subscribe registers fn to run after every operation that changes cache
// membership (Insert/InsertH, Reserve, EvictAll, LoseAll), with the block
// hashes that changed. Schedulers use the feed to rekey only the waiting
// requests whose cached-prefix frontier holds a changed block instead of
// rescanning the queue. fn runs synchronously on the engine's event
// thread; it may read the Manager but must not mutate it. The event's
// slices are reused once fn returns: fn must copy what it keeps.
func (m *Manager) Subscribe(fn func(ChangeEvent)) {
	m.subs = append(m.subs, fn)
}

// flushChanges delivers the pending membership changes and truncates
// them for reuse.
func (m *Manager) flushChanges() {
	if len(m.pending.Inserted) == 0 && len(m.pending.Evicted) == 0 {
		return
	}
	for _, fn := range m.subs {
		fn(m.pending)
	}
	m.pending.Inserted = m.pending.Inserted[:0]
	m.pending.Evicted = m.pending.Evicted[:0]
}

// Config configures a Manager.
type Config struct {
	// BlockTokens is the tokens per cache block (vLLM default 16).
	BlockTokens int
	// BytesPerToken is the full-depth KV cache size of one token.
	BytesPerToken int64
	// CapacityBytes is the cache pool size.
	CapacityBytes int64
	// HostCapacityBytes enables the §9 CPU offload tier when positive:
	// evicted blocks demote to host memory instead of being discarded,
	// and engines may restore them over the host link.
	HostCapacityBytes int64
}

// New constructs a Manager.
func New(cfg Config) (*Manager, error) {
	if cfg.BlockTokens <= 0 {
		return nil, fmt.Errorf("kvcache: BlockTokens must be positive, got %d", cfg.BlockTokens)
	}
	if cfg.BytesPerToken <= 0 {
		return nil, fmt.Errorf("kvcache: BytesPerToken must be positive, got %d", cfg.BytesPerToken)
	}
	if cfg.CapacityBytes < 0 {
		return nil, fmt.Errorf("kvcache: CapacityBytes must be non-negative, got %d", cfg.CapacityBytes)
	}
	m := &Manager{
		blockTokens:   cfg.BlockTokens,
		bytesPerBlock: cfg.BytesPerToken * int64(cfg.BlockTokens),
		capacity:      cfg.CapacityBytes,
		index:         newSeededIndex(),
	}
	if cfg.HostCapacityBytes > 0 {
		m.host = newHostTier(cfg.HostCapacityBytes, m.bytesPerBlock)
	}
	return m, nil
}

// BlockTokens returns the tokens per cache block.
func (m *Manager) BlockTokens() int { return m.blockTokens }

// Stats returns a copy of the activity counters.
func (m *Manager) Stats() Stats { return m.stats }

// CapacityBytes returns the pool size.
func (m *Manager) CapacityBytes() int64 { return m.capacity }

// UsedBytes returns the bytes currently held by cached blocks.
func (m *Manager) UsedBytes() int64 { return m.used }

// CapacityTokens returns the whole blocks the pool can hold, in tokens.
func (m *Manager) CapacityTokens() int {
	if m.bytesPerBlock == 0 {
		return 0
	}
	return int(m.capacity/m.bytesPerBlock) * m.blockTokens
}

// BlockHashes maps a token sequence to its chain of content-addressed
// block hashes: hash(block i) covers block i's tokens chained with block
// i-1's hash. Only full blocks participate in prefix caching (partial tail
// blocks are never shared), matching vLLM. The hash is deterministic, so
// chains computed once per request are valid for every Manager with the
// same block size.
//
// The kernel is XXH64 over the block's tokens as 64-bit words, seeded with
// the parent block's hash: four multiply-rotate lanes consume four tokens
// per stripe, and one avalanche finishes the block. The chain is
// prefix-closed (equal leading blocks give equal leading hashes) and never
// contains 0, which is reserved for "no parent". Beyond that, hashes are
// only ever compared for equality: nothing exports, persists or orders on
// them. So the hash function can change without changing any simulated
// outcome, as long as it keeps those two properties and stays
// collision-free in practice.
func BlockHashes(tokens []uint64, blockTokens int) []uint64 {
	if blockTokens <= 0 {
		panic("kvcache: blockTokens must be positive")
	}
	hashes := make([]uint64, len(tokens)/blockTokens)
	var parent uint64
	for i := range hashes {
		h := hashBlock(parent, tokens[i*blockTokens:(i+1)*blockTokens])
		if h == 0 {
			h = 1 // 0 is reserved for "no parent"
		}
		parent = h
		hashes[i] = h
	}
	return hashes
}

// XXH64's primes.
const (
	prime1 = 0x9e3779b185ebca87
	prime2 = 0xc2b2ae3d27d4eb4f
	prime3 = 0x165667b19e3779f9
	prime4 = 0x85ebca77c2b2ae63
	prime5 = 0x27d4eb2f165667c5
)

// hashBlock is XXH64 of one block's tokens, read as little-endian 64-bit
// words, with the given seed.
func hashBlock(seed uint64, toks []uint64) uint64 {
	var h uint64
	i := 0
	if len(toks) >= 4 {
		v1, v2, v3, v4 := seed+prime1+prime2, seed+prime2, seed, seed-prime1
		for ; i+4 <= len(toks); i += 4 {
			s := toks[i : i+4]
			v1 = round(v1, s[0])
			v2 = round(v2, s[1])
			v3 = round(v3, s[2])
			v4 = round(v4, s[3])
		}
		h = bits.RotateLeft64(v1, 1) + bits.RotateLeft64(v2, 7) +
			bits.RotateLeft64(v3, 12) + bits.RotateLeft64(v4, 18)
		h = mergeRound(h, v1)
		h = mergeRound(h, v2)
		h = mergeRound(h, v3)
		h = mergeRound(h, v4)
	} else {
		h = seed + prime5
	}
	h += uint64(len(toks)) * 8
	for ; i < len(toks); i++ {
		h ^= round(0, toks[i])
		h = bits.RotateLeft64(h, 27)*prime1 + prime4
	}
	h ^= h >> 33
	h *= prime2
	h ^= h >> 29
	h *= prime3
	h ^= h >> 32
	return h
}

// round folds one 64-bit word into a lane.
func round(acc, word uint64) uint64 {
	acc += word * prime2
	return bits.RotateLeft64(acc, 31) * prime1
}

// mergeRound folds a finished lane into the block hash.
func mergeRound(h, lane uint64) uint64 {
	h ^= round(0, lane)
	return h*prime1 + prime4
}

func (m *Manager) blockHashes(tokens []uint64) []uint64 {
	return BlockHashes(tokens, m.blockTokens)
}

// Lookup returns the number of leading tokens of the sequence that are
// cached (whole blocks only) and refreshes their LRU timestamps.
func (m *Manager) Lookup(tokens []uint64, now float64) int {
	return m.LookupH(m.blockHashes(tokens), now)
}

// LookupH is Lookup over a precomputed hash chain (see BlockHashes). It
// stamps only the hit prefix's deepest block (see Manager).
func (m *Manager) LookupH(hashes []uint64, now float64) int {
	m.stats.LookupTokens += int64(len(hashes) * m.blockTokens)
	n, i := m.index.prefix(hashes)
	if n == 0 {
		return 0
	}
	m.slab[i].lastUsed = now
	m.lru.fix(m.slab, i)
	hit := n * m.blockTokens
	m.stats.HitTokens += int64(hit)
	return hit
}

// Peek returns the number of leading tokens of the sequence that are
// cached without refreshing LRU state or stats. Schedulers use it during
// continuous JCT calibration sweeps, which must not distort eviction order.
func (m *Manager) Peek(tokens []uint64) int {
	return m.PeekH(m.blockHashes(tokens))
}

// PeekH is Peek over a precomputed hash chain, which must start at the
// sequence's first block (as BlockHashes returns it). The GPU tier is
// prefix-closed: InsertH adds a block only after its parent, and eviction
// takes only childless blocks, so the cached blocks of such a chain are
// always a prefix of it and PeekH binary-searches for its end in
// O(log len(hashes)) probes.
func (m *Manager) PeekH(hashes []uint64) int {
	n, _ := m.index.prefix(hashes)
	return n * m.blockTokens
}

// CommonPrefix returns how many leading hashes two root-anchored chains
// (as BlockHashes returns them) share. Each block's hash is seeded with
// its parent's, so equality is prefix-closed — a[i] == b[i] implies
// a[j] == b[j] for every j < i — and CommonPrefix binary-searches for the
// first differing index in O(log min(len(a), len(b))) probes.
func CommonPrefix(a, b []uint64) int {
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

// HasBlock reports whether the block with the given content hash is
// cached, without refreshing LRU state or stats. Along a chain that starts
// at the root, a cached block's predecessors are all cached (see PeekH),
// so the first miss ends the cached prefix.
func (m *Manager) HasBlock(hash uint64) bool {
	_, ok := m.index.get(hash)
	return ok
}

// Reserve claims bytes of pool space for a request's execution-time KV
// residency (conventional engines must hold the full fresh KV of a running
// request in the pool). Colder unpinned blocks are evicted to make room.
// It returns the shortfall that could not be satisfied (which the engine
// must spill over the host link) and a release function.
func (m *Manager) Reserve(bytes int64) (shortfall int64, release func()) {
	defer m.flushChanges() // reclaim may evict
	if bytes < 0 {
		bytes = 0
	}
	m.reclaim(bytes)
	free := m.capacity - m.used - m.reserved
	if free < 0 {
		free = 0
	}
	granted := bytes
	if granted > free {
		granted = free
	}
	m.reserved += granted
	released := false
	return bytes - granted, func() {
		if released {
			return
		}
		released = true
		m.reserved -= granted
	}
}

// ReservedBytes returns the pool bytes currently claimed by running
// requests.
func (m *Manager) ReservedBytes() int64 { return m.reserved }

// CheckIdle reports what a drained engine must not hold: a pin that was
// never released, or reserved bytes.
func (m *Manager) CheckIdle() error {
	if m.pinned != 0 || m.reserved != 0 {
		return fmt.Errorf("kvcache: %d pins and %d reserved bytes still held", m.pinned, m.reserved)
	}
	return nil
}

// Pin marks the cached prefix of the sequence as in-use (unevictable) and
// returns the pinned token count along with a release function. Engines pin
// a request's hit prefix for the duration of its execution.
func (m *Manager) Pin(tokens []uint64, now float64) (int, func()) {
	return m.PinH(m.blockHashes(tokens), now)
}

// PinH is Pin over a precomputed hash chain. Like Lookup, it counts
// toward the hit-rate statistics (engines pin instead of looking up). It
// pins and stamps only the hit prefix's deepest block, which keeps every
// block above it cached (see Manager).
func (m *Manager) PinH(hashes []uint64, now float64) (int, func()) {
	m.stats.LookupTokens += int64(len(hashes) * m.blockTokens)
	n, i := m.index.prefix(hashes)
	if n == 0 {
		return 0, noRelease
	}
	hit := n * m.blockTokens
	m.stats.HitTokens += int64(hit)
	m.pin(i, now)
	m.pinned++
	// A pinned block is never freed, so slot i stays its own until the
	// release.
	released := false
	return hit, func() {
		if released {
			return
		}
		released = true
		m.pinned--
		m.slab[i].pins--
		m.maybeEvictable(i)
	}
}

// noRelease is the release of a pin that pinned nothing.
func noRelease() {}

// pin stamps block i with now and pins it, taking it out of the LRU heap.
func (m *Manager) pin(i int32, now float64) {
	b := &m.slab[i]
	b.lastUsed = now
	b.pins++
	m.lru.remove(m.slab, i)
}

// maybeEvictable inserts block i into the LRU heap when it has become
// evictable (no pins and no children).
func (m *Manager) maybeEvictable(i int32) {
	if b := &m.slab[i]; b.pins == 0 && b.children == 0 && b.heapIdx < 0 {
		m.lru.push(m.slab, i)
	}
}

// Insert caches the KV blocks of tokens[:limit], evicting colder unpinned
// blocks as needed, and returns the number of tokens actually cached.
// Blocks that are already present are refreshed. Insertion stops at the
// first block for which space cannot be reclaimed — this is suffix
// discarding: the prefix stays, the suffix is dropped.
//
// The deepest block of the chain so far stays pinned while the insertion
// is in progress, so that reclaim can never evict the block the next one
// is about to chain onto, nor (having a child) any block above it.
func (m *Manager) Insert(tokens []uint64, limit int, now float64) int {
	if limit > len(tokens) {
		limit = len(tokens)
	}
	if limit < 0 {
		limit = 0
	}
	return m.InsertH(m.blockHashes(tokens[:limit]), now)
}

// InsertH is Insert over a precomputed, root-anchored hash chain (all
// given blocks are candidates; trim the chain to express a limit). The
// GPU tier is prefix-closed, so every block after the cached prefix,
// which a binary search finds, is missing and is inserted without a
// lookup.
func (m *Manager) InsertH(hashes []uint64, now float64) int {
	defer m.flushChanges()
	n, tip := m.index.prefix(hashes)
	if n > 0 {
		m.pin(tip, now)
	}
	for k := n; k < len(hashes); k++ {
		if !m.reclaim(m.bytesPerBlock) {
			m.stats.RejectedBlocks += int64(len(hashes) - k)
			break
		}
		hash := hashes[k]
		if m.host != nil {
			// The block now lives in the GPU tier; drop the host copy.
			m.host.remove(hash)
		}
		i := m.alloc()
		b := &m.slab[i]
		*b = block{hash: hash, lastUsed: now, parent: tip, depth: 1, pins: 1, heapIdx: -1}
		if tip >= 0 {
			// The pin moves to the new block: its child keeps the tip.
			p := &m.slab[tip]
			b.depth = p.depth + 1
			p.children++
			p.pins--
		}
		m.index.put(hash, i)
		m.used += m.bytesPerBlock
		if len(m.subs) > 0 {
			m.pending.Inserted = append(m.pending.Inserted, hash)
		}
		m.stats.InsertedBlocks++
		n++
		tip = i
	}
	if tip >= 0 {
		m.slab[tip].pins--
		m.maybeEvictable(tip)
	}
	return n * m.blockTokens
}

// alloc returns a free slab slot, growing the slab when none is free.
func (m *Manager) alloc() int32 {
	if n := len(m.free); n > 0 {
		i := m.free[n-1]
		m.free = m.free[:n-1]
		return i
	}
	m.slab = append(m.slab, block{})
	return int32(len(m.slab) - 1)
}

// reclaim evicts LRU blocks until free bytes >= need. Returns false when
// not enough unpinned leaf blocks exist.
func (m *Manager) reclaim(need int64) bool {
	for m.capacity-m.used-m.reserved < need {
		i, ok := m.lru.popOldest(m.slab)
		if !ok {
			return false
		}
		m.remove(i, true)
	}
	return true
}

// remove drops evictable block i from the GPU tier and frees its slot.
// With demote set and the host tier enabled, the block moves to the host
// tier (eviction); otherwise it is destroyed (a crash). Its parent loses
// a child and may become evictable, so first it takes i's timestamp if
// that is later: the recency rule (see Manager).
func (m *Manager) remove(i int32, demote bool) {
	b := &m.slab[i]
	m.index.del(b.hash)
	m.used -= m.bytesPerBlock
	if len(m.subs) > 0 {
		m.pending.Evicted = append(m.pending.Evicted, b.hash)
	}
	m.stats.EvictedBlocks++
	if demote && m.host != nil {
		m.host.add(b.hash)
		m.stats.OffloadedBlocks++
	}
	if p := b.parent; p >= 0 {
		pb := &m.slab[p]
		pb.lastUsed = max(pb.lastUsed, b.lastUsed)
		pb.children--
		m.maybeEvictable(p)
	}
	*b = block{}
	m.free = append(m.free, i)
}

// EvictAll drops every block that no pin holds: all but the pinned
// blocks and the blocks above them (used by tests and by engines on
// reconfiguration).
func (m *Manager) EvictAll() {
	defer m.flushChanges()
	m.removeAll(true)
}

// removeAll removes evictable blocks, oldest first, until none is left.
func (m *Manager) removeAll(demote bool) {
	for {
		i, ok := m.lru.popOldest(m.slab)
		if !ok {
			return
		}
		m.remove(i, demote)
	}
}

// LoseAll models an instance crash: every unpinned GPU-tier block is
// destroyed (not demoted to the host tier, unlike eviction) and the host
// tier itself is wiped — the machine is gone, both memories with it.
// Callers must release all pins first (the engine's kill path aborts
// in-flight work before losing the cache); any still-pinned chain
// survives, exactly as EvictAll would leave it.
func (m *Manager) LoseAll() {
	defer m.flushChanges()
	m.removeAll(false)
	if m.host != nil {
		m.host.clear()
	}
}

// Len returns the number of cached blocks.
func (m *Manager) Len() int { return m.index.n }

// CheckInvariants validates internal consistency; tests call it after
// operation sequences.
func (m *Manager) CheckInvariants() error {
	children := make([]int32, len(m.slab))
	live := 0
	for i := range m.slab {
		b := &m.slab[i]
		if b.depth == 0 {
			continue
		}
		live++
		if j, ok := m.index.get(b.hash); !ok || j != int32(i) {
			return fmt.Errorf("kvcache: block %x in slot %d is indexed at slot %d (found %v)", b.hash, i, j, ok)
		}
		if b.parent < 0 {
			if b.depth != 1 {
				return fmt.Errorf("kvcache: parentless block %x at depth %d", b.hash, b.depth)
			}
			continue
		}
		if int(b.parent) >= len(m.slab) || m.slab[b.parent].depth == 0 || m.slab[b.parent].depth != b.depth-1 {
			return fmt.Errorf("kvcache: block %x at depth %d has dangling parent slot %d", b.hash, b.depth, b.parent)
		}
		children[b.parent]++
	}
	indexed := 0
	for k, ref := range m.index.refs {
		if ref == 0 {
			continue
		}
		indexed++
		if s, h := ref-1, m.index.hashes[k]; int(s) >= len(m.slab) || m.slab[s].depth == 0 || m.slab[s].hash != h {
			return fmt.Errorf("kvcache: hash %x is indexed at slot %d, which does not hold it", h, s)
		}
	}
	if indexed != live || m.index.n != live {
		return fmt.Errorf("kvcache: %d live blocks but %d indexed (count %d)", live, indexed, m.index.n)
	}
	isFree := make([]bool, len(m.slab))
	for _, i := range m.free {
		if m.slab[i].depth != 0 || isFree[i] {
			return fmt.Errorf("kvcache: free list holds slot %d twice or while live", i)
		}
		isFree[i] = true
	}
	if live+len(m.free) != len(m.slab) {
		return fmt.Errorf("kvcache: %d live + %d free slots, slab has %d", live, len(m.free), len(m.slab))
	}
	if used := int64(live) * m.bytesPerBlock; used != m.used {
		return fmt.Errorf("kvcache: used=%d but blocks sum to %d", m.used, used)
	}
	if m.used > m.capacity {
		return fmt.Errorf("kvcache: used %d exceeds capacity %d", m.used, m.capacity)
	}
	for i := range m.slab {
		b := &m.slab[i]
		if b.depth == 0 {
			continue
		}
		if b.children != children[i] {
			return fmt.Errorf("kvcache: block %x children=%d, actual %d", b.hash, b.children, children[i])
		}
		evictable := b.pins == 0 && b.children == 0
		if evictable != (b.heapIdx >= 0) {
			return fmt.Errorf("kvcache: block %x evictable=%v but heapIdx=%d (pins=%d children=%d)",
				b.hash, evictable, b.heapIdx, b.pins, b.children)
		}
	}
	for k, i := range m.lru.items {
		if m.slab[i].heapIdx != int32(k) {
			return fmt.Errorf("kvcache: LRU heap item %d is slot %d, whose heapIdx is %d", k, i, m.slab[i].heapIdx)
		}
	}
	return nil
}
