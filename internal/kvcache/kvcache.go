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
	"slices"
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
	// RejectedBlocks counts insertions dropped because space could not
	// be reclaimed (everything else was pinned or hotter).
	RejectedBlocks int64
}

// HitRate returns the fraction of looked-up tokens served from cache.
func (s Stats) HitRate() float64 {
	if s.LookupTokens == 0 {
		return 0
	}
	return float64(s.HitTokens) / float64(s.LookupTokens)
}

type block struct {
	hash     uint64
	parent   uint64
	depth    int // 1-based chain position
	children int // blocks that chain onto this one
	pins     int
	lastUsed float64

	// heap index for the LRU heap; -1 when not evictable.
	heapIdx int
}

// Manager is a single simulated device's (or engine's) prefix cache.
// It is not goroutine-safe; engines are single-threaded event handlers.
type Manager struct {
	blockTokens   int
	bytesPerBlock int64
	capacity      int64
	used          int64
	reserved      int64

	blocks map[uint64]*block
	lru    lruHeap
	host   *hostTier // nil when offloading is disabled
	stats  Stats

	subs    []func(ChangeEvent)
	pending ChangeEvent

	// scratch collects the blocks an InsertH or PinH walk touches, so a
	// walk does not grow a fresh slice block by block. It holds no
	// pointers between calls.
	scratch []*block
}

// ChangeEvent describes the cache-membership changes of one operation:
// the block hashes newly inserted into the GPU tier and those evicted
// from it. Pins, unpins and LRU refreshes do not change membership and
// are not reported.
type ChangeEvent struct {
	Inserted []uint64
	Evicted  []uint64
}

// Subscribe registers fn to run after every operation that changes cache
// membership (Insert/InsertH, Reserve, EvictAll), with the block hashes
// that changed. Schedulers use the feed to rekey only the waiting
// requests whose prefix hash chains overlap a changed block instead of
// rescanning the queue. fn runs synchronously on the engine's event
// thread; it may read the Manager but must not mutate it.
func (m *Manager) Subscribe(fn func(ChangeEvent)) {
	m.subs = append(m.subs, fn)
}

// flushChanges delivers and clears the pending membership changes.
func (m *Manager) flushChanges() {
	if len(m.pending.Inserted) == 0 && len(m.pending.Evicted) == 0 {
		return
	}
	ev := m.pending
	m.pending = ChangeEvent{}
	for _, fn := range m.subs {
		fn(ev)
	}
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
		blocks:        make(map[uint64]*block),
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

// LookupH is Lookup over a precomputed hash chain (see BlockHashes).
func (m *Manager) LookupH(hashes []uint64, now float64) int {
	m.stats.LookupTokens += int64(len(hashes) * m.blockTokens)
	hit := 0
	for _, hash := range hashes {
		b, ok := m.blocks[hash]
		if !ok {
			break
		}
		b.lastUsed = now
		if b.heapIdx >= 0 {
			m.lru.fix(b)
		}
		hit += m.blockTokens
	}
	m.stats.HitTokens += int64(hit)
	return hit
}

// Peek returns the number of leading tokens of the sequence that are
// cached without refreshing LRU state or stats. Schedulers use it during
// continuous JCT calibration sweeps, which must not distort eviction order.
func (m *Manager) Peek(tokens []uint64) int {
	return m.PeekH(m.blockHashes(tokens))
}

// PeekH is Peek over a precomputed hash chain.
func (m *Manager) PeekH(hashes []uint64) int {
	hit := 0
	for _, hash := range hashes {
		if _, ok := m.blocks[hash]; !ok {
			break
		}
		hit += m.blockTokens
	}
	return hit
}

// HasBlock reports whether the block with the given content hash is
// cached, without refreshing LRU state or stats. Routers use it to merge
// cache contents with their own in-flight bookkeeping when estimating
// per-instance hit lengths.
func (m *Manager) HasBlock(hash uint64) bool {
	_, ok := m.blocks[hash]
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

// Pin marks the cached prefix of the sequence as in-use (unevictable) and
// returns the pinned token count along with a release function. Engines pin
// a request's hit prefix for the duration of its execution.
func (m *Manager) Pin(tokens []uint64, now float64) (int, func()) {
	return m.PinH(m.blockHashes(tokens), now)
}

// PinH is Pin over a precomputed hash chain. Like Lookup, it counts
// toward the hit-rate statistics (engines pin instead of looking up).
func (m *Manager) PinH(hashes []uint64, now float64) (int, func()) {
	m.stats.LookupTokens += int64(len(hashes) * m.blockTokens)
	walk := m.scratch[:0]
	for _, hash := range hashes {
		b, ok := m.blocks[hash]
		if !ok {
			break
		}
		b.pins++
		if b.heapIdx >= 0 {
			m.lru.remove(b)
		}
		b.lastUsed = now
		walk = append(walk, b)
	}
	hit := len(walk) * m.blockTokens
	m.stats.HitTokens += int64(hit)
	// The release outlives this call: copy the hit prefix out of the
	// scratch at its exact size (nothing on a miss).
	pinned := slices.Clone(walk)
	m.releaseScratch(walk)
	released := false
	return hit, func() {
		if released {
			return
		}
		released = true
		for _, b := range pinned {
			b.pins--
			m.maybeEvictable(b)
		}
	}
}

// maybeEvictable inserts a block into the LRU heap when it has become
// evictable (no pins and no children).
func (m *Manager) maybeEvictable(b *block) {
	if b.pins == 0 && b.children == 0 && b.heapIdx < 0 {
		m.lru.push(b)
	}
}

// Insert caches the KV blocks of tokens[:limit], evicting colder unpinned
// blocks as needed, and returns the number of tokens actually cached.
// Blocks that are already present are refreshed. Insertion stops at the
// first block for which space cannot be reclaimed — this is suffix
// discarding: the prefix stays, the suffix is dropped.
//
// The chain being inserted is pinned while the walk is in progress so that
// reclaim can never evict a block that a subsequent block of the same
// request is about to chain onto.
func (m *Manager) Insert(tokens []uint64, limit int, now float64) int {
	if limit > len(tokens) {
		limit = len(tokens)
	}
	if limit < 0 {
		limit = 0
	}
	return m.InsertH(m.blockHashes(tokens[:limit]), now)
}

// InsertH is Insert over a precomputed hash chain (all given blocks are
// candidates; trim the chain to express a limit).
func (m *Manager) InsertH(hashes []uint64, now float64) int {
	defer m.flushChanges()
	cached := 0
	var parent *block
	path := m.scratch[:0]
	for _, hash := range hashes {
		if b, ok := m.blocks[hash]; ok {
			b.lastUsed = now
			b.pins++
			if b.heapIdx >= 0 {
				m.lru.remove(b)
			}
			path = append(path, b)
			cached += m.blockTokens
			parent = b
			continue
		}
		if !m.reclaim(m.bytesPerBlock) {
			m.stats.RejectedBlocks++
			break
		}
		if m.host != nil {
			// The block now lives in the GPU tier; drop the host copy.
			m.host.remove(hash)
		}
		b := &block{hash: hash, depth: 1, lastUsed: now, heapIdx: -1, pins: 1}
		if parent != nil {
			b.parent = parent.hash
			b.depth = parent.depth + 1
			parent.children++
		}
		m.blocks[hash] = b
		m.used += m.bytesPerBlock
		if len(m.subs) > 0 {
			m.pending.Inserted = append(m.pending.Inserted, hash)
		}
		path = append(path, b)
		m.stats.InsertedBlocks++
		cached += m.blockTokens
		parent = b
	}
	for _, b := range path {
		b.pins--
		m.maybeEvictable(b)
	}
	m.releaseScratch(path)
	return cached
}

// releaseScratch hands a walk's slice back as the scratch, cleared so it
// keeps no block alive.
func (m *Manager) releaseScratch(walk []*block) {
	clear(walk)
	m.scratch = walk[:0]
}

// reclaim evicts LRU blocks until free bytes >= need. Returns false when
// not enough unpinned leaf blocks exist.
func (m *Manager) reclaim(need int64) bool {
	for m.capacity-m.used-m.reserved < need {
		b := m.lru.popOldest()
		if b == nil {
			return false
		}
		m.evict(b)
	}
	return true
}

func (m *Manager) evict(b *block) {
	delete(m.blocks, b.hash)
	m.used -= m.bytesPerBlock
	if len(m.subs) > 0 {
		m.pending.Evicted = append(m.pending.Evicted, b.hash)
	}
	m.stats.EvictedBlocks++
	if m.host != nil {
		m.host.add(b.hash)
		m.stats.OffloadedBlocks++
	}
	if b.parent != 0 {
		if p, ok := m.blocks[b.parent]; ok {
			p.children--
			m.maybeEvictable(p)
		}
	}
}

// EvictAll drops every unpinned block (used by tests and by engines on
// reconfiguration).
func (m *Manager) EvictAll() {
	defer m.flushChanges()
	for {
		b := m.lru.popOldest()
		if b == nil {
			return
		}
		m.evict(b)
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
	for {
		b := m.lru.popOldest()
		if b == nil {
			break
		}
		delete(m.blocks, b.hash)
		m.used -= m.bytesPerBlock
		if len(m.subs) > 0 {
			m.pending.Evicted = append(m.pending.Evicted, b.hash)
		}
		m.stats.EvictedBlocks++
		if b.parent != 0 {
			if p, ok := m.blocks[b.parent]; ok {
				p.children--
				m.maybeEvictable(p)
			}
		}
	}
	if m.host != nil {
		m.host.clear()
	}
}

// Len returns the number of cached blocks.
func (m *Manager) Len() int { return len(m.blocks) }

// CheckInvariants validates internal consistency; tests call it after
// operation sequences.
func (m *Manager) CheckInvariants() error {
	var used int64
	children := make(map[uint64]int)
	//prefill:allow(simdeterminism): test-only invariant sweep; accumulates commutative sums, never touches sim state
	for _, b := range m.blocks {
		used += m.bytesPerBlock
		if b.parent != 0 {
			if _, ok := m.blocks[b.parent]; !ok {
				return fmt.Errorf("kvcache: block %x has dangling parent %x", b.hash, b.parent)
			}
			children[b.parent]++
		}
	}
	if used != m.used {
		return fmt.Errorf("kvcache: used=%d but blocks sum to %d", m.used, used)
	}
	if m.used > m.capacity {
		return fmt.Errorf("kvcache: used %d exceeds capacity %d", m.used, m.capacity)
	}
	//prefill:allow(simdeterminism): test-only invariant sweep; reports error presence, never touches sim state
	for _, b := range m.blocks {
		if b.children != children[b.hash] {
			return fmt.Errorf("kvcache: block %x children=%d, actual %d", b.hash, b.children, children[b.hash])
		}
		evictable := b.pins == 0 && b.children == 0
		if evictable != (b.heapIdx >= 0) {
			return fmt.Errorf("kvcache: block %x evictable=%v but heapIdx=%d (pins=%d children=%d)",
				b.hash, evictable, b.heapIdx, b.pins, b.children)
		}
	}
	return nil
}
