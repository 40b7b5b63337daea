package kvcache

// lruHeap is a min-heap of evictable blocks' slab slots ordered by
// lastUsed, with depth as a tie-breaker so that deeper (suffix) blocks of
// a chain are evicted before shallower ones when timestamps tie. Its
// methods take the slab the slots index, and keep each block's heapIdx.
type lruHeap struct {
	items []int32
}

func (h *lruHeap) less(s []block, i, j int) bool {
	a, b := &s[h.items[i]], &s[h.items[j]]
	if a.lastUsed != b.lastUsed {
		return a.lastUsed < b.lastUsed
	}
	return a.depth > b.depth
}

func (h *lruHeap) swap(s []block, i, j int) {
	h.items[i], h.items[j] = h.items[j], h.items[i]
	s[h.items[i]].heapIdx = int32(i)
	s[h.items[j]].heapIdx = int32(j)
}

func (h *lruHeap) push(s []block, slot int32) {
	i := len(h.items)
	s[slot].heapIdx = int32(i)
	h.items = append(h.items, slot)
	h.up(s, i)
}

// remove takes slot out of the heap; it is a no-op when slot is not in it.
func (h *lruHeap) remove(s []block, slot int32) {
	i := int(s[slot].heapIdx)
	if i < 0 {
		return
	}
	last := len(h.items) - 1
	if i != last {
		h.swap(s, i, last)
	}
	h.items = h.items[:last]
	s[slot].heapIdx = -1
	if i < last {
		h.down(s, i)
		h.up(s, i)
	}
}

// fix restores heap order after slot's key changed; it is a no-op when
// slot is not in the heap.
func (h *lruHeap) fix(s []block, slot int32) {
	if i := int(s[slot].heapIdx); i >= 0 {
		h.down(s, i)
		h.up(s, i)
	}
}

// popOldest removes and returns the least-recently-used evictable block's
// slot; ok is false when none exists.
func (h *lruHeap) popOldest(s []block) (slot int32, ok bool) {
	if len(h.items) == 0 {
		return -1, false
	}
	slot = h.items[0]
	h.remove(s, slot)
	return slot, true
}

func (h *lruHeap) up(s []block, i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(s, i, parent) {
			break
		}
		h.swap(s, i, parent)
		i = parent
	}
}

func (h *lruHeap) down(s []block, i int) {
	n := len(h.items)
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && h.less(s, l, smallest) {
			smallest = l
		}
		if r < n && h.less(s, r, smallest) {
			smallest = r
		}
		if smallest == i {
			return
		}
		h.swap(s, i, smallest)
		i = smallest
	}
}
