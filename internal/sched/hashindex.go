package sched

// hashIndex maps each block hash to the waiting entries whose chains
// contain it, so a cache membership change finds the requests to rekey
// without scanning the queue.
//
// It is flat: the map holds only a slot number per hash, and a slot is one
// slice of waiters. Each entry records where each block of its chain sits
// (entry.locs), so removing an entry swap-removes one waiter per block
// without a map lookup. The map is written only when a hash gains its
// first waiter or loses its last. A slot whose hash lost its last waiter
// goes on a free list and keeps its slice's capacity for the next hash.
type hashIndex struct {
	slot  map[uint64]int32
	lists [][]waiter
	free  []int32
}

// waiter is one block of a waiting entry's chain: the entry, and the
// block's position k in the entry's chain.
type waiter struct {
	e *entry
	k int32
}

// waiterLoc places one block of an entry's chain in the index: its hash's
// slot, and its position in that slot's waiter list.
type waiterLoc struct {
	slot, pos int32
}

// drainKeep is the most slots an emptied index keeps for reuse. A Go map
// never shrinks, so an index that once held a deep queue of long chains
// (thousands of blocks per request) is released when its last waiter
// leaves rather than held at its peak size; a small one is kept, so a
// queue that drains often does not rebuild it each time.
const drainKeep = 256

// add indexes e under every block of e.hashes.
func (x *hashIndex) add(e *entry) {
	if x.slot == nil {
		x.slot = make(map[uint64]int32)
	}
	e.locs = make([]waiterLoc, len(e.hashes))
	for k, h := range e.hashes {
		s, ok := x.slot[h]
		if !ok {
			s = x.newSlot()
			x.slot[h] = s
		}
		e.locs[k] = waiterLoc{slot: s, pos: int32(len(x.lists[s]))}
		x.lists[s] = append(x.lists[s], waiter{e: e, k: int32(k)})
	}
}

func (x *hashIndex) newSlot() int32 {
	if n := len(x.free); n > 0 {
		s := x.free[n-1]
		x.free = x.free[:n-1]
		return s
	}
	x.lists = append(x.lists, nil)
	return int32(len(x.lists) - 1)
}

// remove drops e from every list it is on, moving each list's last waiter
// into the vacated position, and releases an emptied index past drainKeep
// slots.
func (x *hashIndex) remove(e *entry) {
	for k, loc := range e.locs {
		list := x.lists[loc.slot]
		last := len(list) - 1
		if moved := list[last]; int(loc.pos) != last {
			list[loc.pos] = moved
			moved.e.locs[moved.k].pos = loc.pos
		}
		list[last] = waiter{}
		x.lists[loc.slot] = list[:last]
		if last == 0 {
			delete(x.slot, e.hashes[k])
			x.free = append(x.free, loc.slot)
		}
	}
	if len(x.slot) == 0 && len(x.lists) > drainKeep {
		*x = hashIndex{}
	}
}

// waiting returns the waiters indexed under h, in no meaningful order.
// The slice is the index's own: callers must not modify the index while
// iterating it.
func (x *hashIndex) waiting(h uint64) []waiter {
	s, ok := x.slot[h]
	if !ok {
		return nil
	}
	return x.lists[s]
}
