package kvcache

import "testing"

func newOffloadMgr(t *testing.T, gpuBlocks, hostBlocks int) *Manager {
	t.Helper()
	m, err := New(Config{
		BlockTokens:       16,
		BytesPerToken:     1024,
		CapacityBytes:     int64(gpuBlocks) * 16 * 1024,
		HostCapacityBytes: int64(hostBlocks) * 16 * 1024,
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestEvictionOffloadsToHost(t *testing.T) {
	m := newOffloadMgr(t, 4, 16)
	a := seq(1, 64)
	b := seq(2, 64)
	m.Insert(a, 64, 1)
	m.Insert(b, 64, 2) // evicts a's 4 blocks → host tier
	if got := m.Peek(a); got != 0 {
		t.Fatalf("a still in GPU tier (%d tokens)", got)
	}
	hashes := BlockHashes(a, 16)
	if got := m.HostHitH(hashes, 0); got != 64 {
		t.Fatalf("host hit = %d tokens, want 64", got)
	}
	if m.Stats().OffloadedBlocks != 4 {
		t.Fatalf("offloaded = %d, want 4", m.Stats().OffloadedBlocks)
	}
	if m.HostUsedBytes() != 4*16*1024 {
		t.Fatalf("host used = %d", m.HostUsedBytes())
	}
}

func TestHostHitSkipsGPUPrefix(t *testing.T) {
	m := newOffloadMgr(t, 4, 16)
	toks := seq(1, 128) // 8 blocks; only 4 fit on GPU
	m.Insert(toks, 128, 1)
	// Suffix discarding kept blocks 1-4 on GPU; nothing offloaded yet.
	hashes := BlockHashes(toks, 16)
	gpuHit := m.PeekH(hashes)
	if gpuHit != 64 {
		t.Fatalf("gpu hit = %d, want 64", gpuHit)
	}
	if got := m.HostHitH(hashes, gpuHit/16); got != 0 {
		t.Fatalf("host hit = %d, want 0 (suffix was discarded, not offloaded)", got)
	}
	// Now evict the GPU prefix by inserting another request: the prefix
	// moves to host, and HostHitH counts from block 0.
	m.Insert(seq(2, 64), 64, 2)
	if got := m.HostHitH(hashes, 0); got != 64 {
		t.Fatalf("host hit after eviction = %d, want 64", got)
	}
}

func TestHostTierFIFOEviction(t *testing.T) {
	m := newOffloadMgr(t, 2, 2)
	m.Insert(seq(1, 32), 32, 1) // 2 blocks on GPU
	m.Insert(seq(2, 32), 32, 2) // evicts seq1 → host (2 blocks, host full)
	m.Insert(seq(3, 32), 32, 3) // evicts seq2 → host, pushing seq1 out (FIFO)
	h1 := BlockHashes(seq(1, 32), 16)
	h2 := BlockHashes(seq(2, 32), 16)
	if got := m.HostHitH(h1, 0); got != 0 {
		t.Fatalf("oldest host blocks not FIFO-evicted (hit %d)", got)
	}
	if got := m.HostHitH(h2, 0); got != 32 {
		t.Fatalf("newest host blocks missing (hit %d)", got)
	}
}

func TestGPUInsertRemovesHostCopy(t *testing.T) {
	m := newOffloadMgr(t, 4, 16)
	a := seq(1, 64)
	m.Insert(a, 64, 1)
	m.Insert(seq(2, 64), 64, 2) // a → host
	m.Insert(a, 64, 3)          // a promoted back to GPU
	if got := m.Peek(a); got != 64 {
		t.Fatalf("a not back on GPU (%d)", got)
	}
	if got := m.HostHitH(BlockHashes(a, 16), 0); got != 0 {
		t.Fatalf("stale host copy remains (%d tokens)", got)
	}
}

// Regression for the remove→re-add staleness bug: remove left the hash's
// queue entry behind, so a re-added block inherited its original FIFO
// position and was evicted prematurely (the re-insertion was ignored).
// A re-add must refresh the block's FIFO position.
func TestHostTierReAddRefreshesFIFOPosition(t *testing.T) {
	h := newHostTier(3, 1)
	h.add(1)
	h.add(2)
	h.remove(1)
	h.add(3)
	h.add(1) // re-add: 1 is now the NEWEST entry, order 2,3,1
	// Tier full (2,3,1). Two more adds must evict 2 then 3 — never 1,
	// which the stale original-position entry would have evicted first.
	h.add(4) // evicts 2
	if !h.contains(1) || h.contains(2) {
		t.Fatalf("first eviction hit the re-added block: contains(1)=%v contains(2)=%v",
			h.contains(1), h.contains(2))
	}
	h.add(5) // evicts 3
	if !h.contains(1) || h.contains(3) {
		t.Fatalf("second eviction hit the re-added block: contains(1)=%v contains(3)=%v",
			h.contains(1), h.contains(3))
	}
	if !h.contains(4) || !h.contains(5) {
		t.Fatal("newest blocks missing after evictions")
	}
	if h.used != 3 {
		t.Fatalf("used = %d, want 3", h.used)
	}
}

// The eviction queue must stay bounded under remove/re-add churn: stale
// entries are compacted, and the ring's backing array tracks the live
// population instead of retaining every insertion ever made.
func TestHostTierQueueBoundedUnderChurn(t *testing.T) {
	h := newHostTier(64, 1)
	for i := uint64(0); i < 64; i++ {
		h.add(i)
	}
	for i := 0; i < 100_000; i++ {
		hash := uint64(i % 64)
		h.remove(hash)
		h.add(hash)
	}
	if h.used != 64 || len(h.blocks) != 64 {
		t.Fatalf("population drifted: used=%d blocks=%d", h.used, len(h.blocks))
	}
	// Live entries (64) plus at most the not-yet-compacted stale half.
	if h.queue.Len() > 2*64+1 {
		t.Fatalf("queue holds %d entries for 64 live blocks", h.queue.Len())
	}
	if h.queue.Cap() > 4*64 {
		t.Fatalf("queue backing array holds %d slots for 64 live blocks", h.queue.Cap())
	}
}

func TestHostDisabledByDefault(t *testing.T) {
	m := newMgr(t, 2)
	m.Insert(seq(1, 32), 32, 1)
	m.Insert(seq(2, 32), 32, 2)
	if got := m.HostHitH(BlockHashes(seq(1, 32), 16), 0); got != 0 {
		t.Fatalf("host tier active without configuration (%d)", got)
	}
	if m.HostUsedBytes() != 0 || m.Stats().OffloadedBlocks != 0 {
		t.Fatal("host accounting nonzero when disabled")
	}
}

// A crash destroys the GPU tier's blocks instead of demoting them, and
// wipes the host tier.
func TestLoseAllDropsBothTiers(t *testing.T) {
	m := newOffloadMgr(t, 4, 16)
	m.Insert(seq(1, 64), 64, 1)
	m.Insert(seq(2, 64), 64, 2) // seq 1 → host
	before := m.Stats()
	m.LoseAll()
	after := m.Stats()
	if m.Len() != 0 || m.UsedBytes() != 0 || m.HostUsedBytes() != 0 {
		t.Fatalf("LoseAll left %d blocks, %d bytes, %d host bytes", m.Len(), m.UsedBytes(), m.HostUsedBytes())
	}
	if after.EvictedBlocks-before.EvictedBlocks != 4 || after.OffloadedBlocks != before.OffloadedBlocks {
		t.Fatalf("LoseAll counted %d evicted and %d offloaded blocks, want 4 and 0",
			after.EvictedBlocks-before.EvictedBlocks, after.OffloadedBlocks-before.OffloadedBlocks)
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
