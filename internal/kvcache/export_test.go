package kvcache

// hasBlock reports whether the block with the given content hash is in
// the GPU tier, without refreshing LRU state or stats.
func (m *Manager) hasBlock(hash uint64) bool {
	_, ok := m.index.get(hash)
	return ok
}

// flat returns hashes as a chain with no shared part.
func flat(hashes []uint64) *Chain { return &Chain{Own: hashes} }
