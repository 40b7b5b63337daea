// Package ringbuf is the repository's one sanctioned FIFO queue pattern:
// a growable ring buffer whose backing array is bounded by the peak queue
// depth and shrinks again when the queue drains.
//
// It exists because the naive `q = q[1:]` slice advance is a memory-
// retention bug: the backing array is never released (every popped element
// stays reachable until the slice is regrown past it), so a long-lived
// queue under churn pins memory proportional to everything ever enqueued,
// not to what is waiting. PR 2 fixed that pattern in the scheduler's FIFO;
// this package extracts the fix so the §7.1 routing policy's user table
// (router.FirstSeen), the pipeline-parallel stage handoff, the host-tier
// eviction queue and the sim kernel's time-ordered arrivals reuse it
// instead of hand-copying another variant.
package ringbuf

// minCap is the smallest backing array kept once the ring has allocated.
const minCap = 8

// Ring is a FIFO queue over a circular backing array. The zero value is
// an empty ring ready for use. Dequeued slots are zeroed so popped
// elements do not linger reachable through the backing array.
type Ring[T any] struct {
	buf   []T
	head  int
	count int
}

// Len returns the number of queued elements.
func (r *Ring[T]) Len() int { return r.count }

// Cap returns the backing array's capacity (0 before the first push).
// Exposed so tests can assert the array stays bounded by peak depth.
func (r *Ring[T]) Cap() int { return len(r.buf) }

// PushBack appends v at the tail.
func (r *Ring[T]) PushBack(v T) {
	if r.count == len(r.buf) {
		r.resize(2 * r.count)
	}
	r.buf[(r.head+r.count)%len(r.buf)] = v
	r.count++
}

// PopFront removes and returns the head element; ok is false on an empty
// ring. The vacated slot is zeroed, and the backing array halves once the
// ring drains below a quarter of it.
func (r *Ring[T]) PopFront() (v T, ok bool) {
	if r.count == 0 {
		return v, false
	}
	var zero T
	v = r.buf[r.head]
	r.buf[r.head] = zero
	r.head = (r.head + 1) % len(r.buf)
	r.count--
	if len(r.buf) > minCap && r.count <= len(r.buf)/4 {
		r.resize(len(r.buf) / 2)
	}
	return v, true
}

// At returns the i-th queued element counting from the head (0 is the
// oldest) without removing it. It panics when i is out of range. Readers
// that only need to walk the live window (the trace exporter over the
// flight-recorder ring) use this instead of draining and re-pushing.
func (r *Ring[T]) At(i int) T {
	if i < 0 || i >= r.count {
		panic("ringbuf: index out of range")
	}
	return r.buf[(r.head+i)%len(r.buf)]
}

// Reserve grows the backing array to hold at least n elements without
// moving the shrink floor: a ring that will run at a known steady depth
// (the flight recorder's span capacity) preallocates once so pushes at
// that depth never resize mid-flight.
func (r *Ring[T]) Reserve(n int) {
	if n <= len(r.buf) {
		return
	}
	r.resize(n)
}

// resize moves the live window into a fresh backing array of the given
// capacity (at least minCap).
func (r *Ring[T]) resize(n int) {
	if n < minCap {
		n = minCap
	}
	buf := make([]T, n)
	for i := 0; i < r.count; i++ {
		buf[i] = r.buf[(r.head+i)%len(r.buf)]
	}
	r.buf = buf
	r.head = 0
}
