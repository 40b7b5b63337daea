package sched

// hashIndex maps each block hash to the waiting entries watching it, so a
// cache membership change finds the requests to rekey without scanning
// the queue.
//
// It is flat: the map holds only a slot number per hash, and a slot is one
// slice of waiters. Each entry records where each of its watched hashes
// sits (entry.locs), so removing an entry swap-removes one waiter per
// hash without a map lookup. The map is written only when a hash gains
// its first waiter or loses its last. A slot whose hash lost its last
// waiter goes on a free list and keeps its slice's capacity for the next
// hash. An entry watches at most two hashes, so the index holds at most
// twice as many hashes as the queue holds requests.
//
// A cache change reports every block it inserts or evicts, thousands per
// long request, and few of them are watched. So the index also counts
// its hashes by their low bits: waiting skips the map for a hash whose
// count is 0, and a non-zero count still consults the map, so the filter
// never hides a waiter. A count is at most twice the queue length and
// cannot wrap.
type hashIndex struct {
	slot    map[uint64]int32
	lists   [][]waiter
	free    []int32
	watched [filterBuckets]uint32 // indexed hashes h, counted by h & (filterBuckets-1)
}

// filterBuckets is the number of counts in hashIndex's filter, a power of
// two: with w hashes watched, a changed hash consults the map with
// probability at most w/filterBuckets.
const filterBuckets = 1 << 10

// waiter is one watched hash of a waiting entry: the entry, and the
// hash's position k in the entry's watch set.
type waiter struct {
	e *entry
	k int32
}

// waiterLoc places one watched hash of an entry in the index: its hash's
// slot, and its position in that slot's waiter list.
type waiterLoc struct {
	slot, pos int32
}

// add indexes e under every hash of e.watch.
func (x *hashIndex) add(e *entry) {
	if x.slot == nil {
		x.slot = make(map[uint64]int32)
	}
	for k, h := range e.watch {
		if h == 0 {
			continue
		}
		s, ok := x.slot[h]
		if !ok {
			s = x.newSlot()
			x.slot[h] = s
			x.watched[h&(filterBuckets-1)]++
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
// into the vacated position.
func (x *hashIndex) remove(e *entry) {
	for k, h := range e.watch {
		if h == 0 {
			continue
		}
		loc := e.locs[k]
		list := x.lists[loc.slot]
		last := len(list) - 1
		if moved := list[last]; int(loc.pos) != last {
			list[loc.pos] = moved
			moved.e.locs[moved.k].pos = loc.pos
		}
		list[last] = waiter{}
		x.lists[loc.slot] = list[:last]
		if last == 0 {
			delete(x.slot, h)
			x.watched[h&(filterBuckets-1)]--
			x.free = append(x.free, loc.slot)
		}
	}
}

// waiting returns the waiters indexed under h, in no meaningful order.
// The slice is the index's own: callers must not modify the index while
// iterating it.
func (x *hashIndex) waiting(h uint64) []waiter {
	if x.watched[h&(filterBuckets-1)] == 0 {
		return nil
	}
	s, ok := x.slot[h]
	if !ok {
		return nil
	}
	return x.lists[s]
}
