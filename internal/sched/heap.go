package sched

// entry is one waiting request inside a keyed scheduler: the request, its
// ordering key, its enqueue sequence number (the final tie-breaker), and —
// when the scheduler watches cache changes — the block hashes it is
// indexed under with where each sits in the index.
type entry struct {
	r     *Request
	key   float64
	seq   uint64
	watch Watch
	locs  [2]waiterLoc // locs[k] places watch[k] in the hash index
	epoch uint64       // last OnCacheChange that collected this entry
	idx   int          // position in the heap; -1 once removed
}

// entryHeap is an indexed min-heap of entries ordered by key; ties prefer
// the longer request (at equal miss-cost the longer one has more cached
// prefix to reuse before it is evicted — the Figure-5 walkthrough's
// choice), then enqueue order. The stored index supports O(log n) removal
// and rekeying of an arbitrary entry when a cache event changes its JCT.
type entryHeap struct {
	items []*entry
}

func (h *entryHeap) len() int { return len(h.items) }

func (h *entryHeap) less(i, j int) bool {
	return entryLess(h.items[i], h.items[j])
}

// entryLess is the scheduling order shared by the heap schedulers and the
// reference sweep: (key asc, request length desc, enqueue order asc).
func entryLess(a, b *entry) bool {
	if a.key != b.key {
		return a.key < b.key
	}
	if a.r.Len() != b.r.Len() {
		return a.r.Len() > b.r.Len()
	}
	return a.seq < b.seq
}

func (h *entryHeap) swap(i, j int) {
	h.items[i], h.items[j] = h.items[j], h.items[i]
	h.items[i].idx = i
	h.items[j].idx = j
}

func (h *entryHeap) push(e *entry) {
	e.idx = len(h.items)
	h.items = append(h.items, e)
	h.up(e.idx)
}

// popMin removes and returns the minimum entry, or nil when empty.
func (h *entryHeap) popMin() *entry {
	if len(h.items) == 0 {
		return nil
	}
	e := h.items[0]
	last := len(h.items) - 1
	if last > 0 {
		h.swap(0, last)
	}
	h.items[last] = nil
	h.items = h.items[:last]
	e.idx = -1
	if last > 0 {
		h.down(0)
	}
	return e
}

// fix restores heap order after e's key changed.
func (h *entryHeap) fix(e *entry) {
	if e.idx < 0 {
		return
	}
	h.down(e.idx)
	h.up(e.idx)
}

func (h *entryHeap) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		h.swap(i, parent)
		i = parent
	}
}

func (h *entryHeap) down(i int) {
	n := len(h.items)
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && h.less(l, smallest) {
			smallest = l
		}
		if r < n && h.less(r, smallest) {
			smallest = r
		}
		if smallest == i {
			return
		}
		h.swap(i, smallest)
		i = smallest
	}
}
