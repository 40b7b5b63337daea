package kvcache

// hasBlock reports whether the block with the given content hash is in
// the GPU tier, without refreshing LRU state or stats.
func (m *Manager) hasBlock(hash uint64) bool {
	_, ok := m.index.get(hash)
	return ok
}

// flat returns hashes as a chain with no shared part.
func flat(hashes []uint64) *Chain { return &Chain{Own: hashes} }

// evictAll drops every block that no pin holds, oldest first, demoting
// each to the host tier as reclaim does: all but the pinned blocks and
// the blocks above them.
func (m *Manager) evictAll() {
	defer m.flushChanges()
	for {
		i, ok := m.lru.popOldest(m.slab)
		if !ok {
			return
		}
		m.remove(i, true)
	}
}

// hostUsedBytes returns the bytes held by the host tier (0 when disabled).
func (m *Manager) hostUsedBytes() int64 {
	if m.host == nil {
		return 0
	}
	return m.host.used
}
