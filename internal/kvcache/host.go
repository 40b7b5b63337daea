package kvcache

// Host-memory offload tier (paper §9, "Offloading the KV caches to CPU"):
// instead of discarding evicted prefix blocks, the manager can demote them
// to a host-memory tier. A later request whose prefix extends past its
// GPU-cache hit can restore the following blocks over the host link
// instead of recomputing them; the engine decides whether restoring beats
// recomputing (LMCache-style semantics).
//
// The tier is content-addressed like the GPU tier but evicts FIFO: host
// memory is large and cheap, so recency tracking buys little there.

import "repro/internal/ringbuf"

// hostEntry is one FIFO slot: the block hash plus the insertion sequence
// number that makes it identifiable as stale. remove used to leave the
// hash's queue entry behind, so a block that was removed and later
// re-added was evicted at its original FIFO position — the re-insertion
// was ignored — while stale entries (and the queue's `queue[1:]` slice
// advance) accumulated backing-array garbage. Each membership now carries
// a fresh seq: an entry is live only while it matches the map's current
// seq for that hash, so a re-add refreshes the block's FIFO position and
// orphaned entries are discarded when popped (plus compacted lazily).
type hostEntry struct {
	hash uint64
	seq  uint64
}

type hostTier struct {
	capacity int64
	used     int64
	perBlock int64
	blocks   map[uint64]uint64 // hash → seq of its live queue entry
	queue    ringbuf.Ring[hostEntry]
	nextSeq  uint64
	stale    int // queue entries no longer matching blocks
}

func newHostTier(capacity, perBlock int64) *hostTier {
	return &hostTier{
		capacity: capacity,
		perBlock: perBlock,
		blocks:   make(map[uint64]uint64),
	}
}

// popOldest evicts the oldest live block, skipping stale entries. It
// returns false when the queue holds no live entry.
func (h *hostTier) popOldest() bool {
	for {
		e, ok := h.queue.PopFront()
		if !ok {
			return false
		}
		if seq, live := h.blocks[e.hash]; live && seq == e.seq {
			delete(h.blocks, e.hash)
			h.used -= h.perBlock
			return true
		}
		h.stale--
	}
}

func (h *hostTier) add(hash uint64) {
	if _, ok := h.blocks[hash]; ok {
		// Already resident: FIFO semantics, no position refresh.
		return
	}
	for h.used+h.perBlock > h.capacity {
		if !h.popOldest() {
			break
		}
	}
	if h.used+h.perBlock > h.capacity {
		return
	}
	h.nextSeq++
	h.blocks[hash] = h.nextSeq
	h.queue.PushBack(hostEntry{hash: hash, seq: h.nextSeq})
	h.used += h.perBlock
}

func (h *hostTier) remove(hash uint64) {
	if _, ok := h.blocks[hash]; ok {
		delete(h.blocks, hash)
		h.used -= h.perBlock
		h.stale++
		h.compact()
	}
}

// compact rewrites the queue without its stale entries once they outnumber
// the live ones, so a remove-heavy workload cannot grow the queue beyond
// twice the resident block count.
func (h *hostTier) compact() {
	if h.stale <= h.queue.Len()/2 {
		return
	}
	var q ringbuf.Ring[hostEntry]
	for {
		e, ok := h.queue.PopFront()
		if !ok {
			break
		}
		if seq, live := h.blocks[e.hash]; live && seq == e.seq {
			q.PushBack(e)
		}
	}
	h.queue = q
	h.stale = 0
}

// clear drops the whole tier (instance crash: host memory is lost with
// the machine). The map and queue are replaced rather than drained so a
// crashed tier releases its peak-size backing arrays.
func (h *hostTier) clear() {
	h.blocks = make(map[uint64]uint64)
	h.queue = ringbuf.Ring[hostEntry]{}
	h.used = 0
	h.stale = 0
}

func (h *hostTier) contains(hash uint64) bool {
	_, ok := h.blocks[hash]
	return ok
}

// HostHitH returns how many tokens, contiguously following the first
// skipBlocks blocks of the chain, are available in the host tier. Unlike
// PeekH it walks the chain block by block: the host tier evicts FIFO and
// gives blocks back to the GPU tier one at a time, so a block there can
// outlive its parent and the tier is not prefix-closed.
func (m *Manager) HostHitH(hashes []uint64, skipBlocks int) int {
	if m.host == nil || skipBlocks >= len(hashes) {
		return 0
	}
	hit := 0
	for _, hash := range hashes[skipBlocks:] {
		if !m.host.contains(hash) {
			break
		}
		hit += m.blockTokens
	}
	return hit
}

// HostUsedBytes returns the bytes held by the host tier (0 when disabled).
func (m *Manager) HostUsedBytes() int64 {
	if m.host == nil {
		return 0
	}
	return m.host.used
}
