// Package memory simulates a GPU memory allocator with the observable
// behaviour of PyTorch's caching allocator: a running total of live bytes,
// a high-water mark, optional out-of-memory enforcement against a capacity,
// and a timestamped allocation trace.
//
// The graph executor (internal/graph) allocates and frees simulated tensors
// through this package in the same order a real forward pass would, so the
// Figure-3 memory spikes and the maximum-input-length limits of the paper
// emerge from allocation behaviour rather than from closed-form constants.
package memory

import (
	"errors"
	"fmt"
)

// ErrOutOfMemory is returned by Alloc when the requested bytes do not fit
// in the configured capacity.
var ErrOutOfMemory = errors.New("memory: out of device memory")

// Allocation is a live block of simulated device memory. It is returned by
// Alloc and must be released with Free exactly once.
type Allocation struct {
	bytes int64
	tag   string
	freed bool
}

// Bytes returns the size of the allocation.
func (a *Allocation) Bytes() int64 { return a.bytes }

// TracePoint is one sample of allocator state, recorded at every allocation
// and free when tracing is enabled.
type TracePoint struct {
	// Time is the simulated timestamp in seconds provided by the clock
	// function, or the event ordinal when no clock is configured.
	Time float64
	// Live is the total live bytes after the event.
	Live int64
	// Event is "alloc" or "free".
	Event string
	// Tag is the tensor label of the block involved.
	Tag string
	// Bytes is the size of the block involved.
	Bytes int64
}

// Allocator tracks live simulated device memory.
//
// Allocator is not goroutine-safe: each simulated device is driven by
// one goroutine.
type Allocator struct {
	capacity int64 // 0 = unlimited (peak-measurement mode)
	live     int64
	peak     int64

	tracing bool
	clock   func() float64
	trace   []TracePoint
}

// New returns an allocator with the given capacity in bytes. A capacity of
// zero disables OOM enforcement, which is how profile runs measure the peak
// footprint of a hypothetical request.
func New(capacity int64) *Allocator {
	return &Allocator{capacity: capacity}
}

// SetClock installs a simulated-time source used to timestamp trace points.
func (m *Allocator) SetClock(clock func() float64) { m.clock = clock }

// StartTrace clears any previous trace and begins recording.
func (m *Allocator) StartTrace() {
	m.tracing = true
	m.trace = m.trace[:0]
}

// StopTrace stops recording and returns the captured trace.
func (m *Allocator) StopTrace() []TracePoint {
	m.tracing = false
	return m.trace
}

// Live returns the currently allocated bytes.
func (m *Allocator) Live() int64 { return m.live }

// Peak returns the high-water mark since construction or the last ResetPeak.
func (m *Allocator) Peak() int64 { return m.peak }

// ResetPeak sets the high-water mark to the current live bytes.
func (m *Allocator) ResetPeak() { m.peak = m.live }

// Free releases an allocation. Freeing nil is a no-op; double-free panics,
// as it indicates a bug in the executor rather than a runtime condition.
func (m *Allocator) Free(a *Allocation) {
	if a == nil {
		return
	}
	if a.freed {
		panic(fmt.Sprintf("memory: double free of %q (%d bytes)", a.tag, a.bytes))
	}
	a.freed = true
	m.live -= a.bytes
	m.record("free", a.tag, a.bytes)
}

// Alloc reserves bytes of simulated memory labeled with tag. It fails with
// an error wrapping ErrOutOfMemory when a capacity is set and would be
// exceeded.
func (m *Allocator) Alloc(bytes int64, tag string) (*Allocation, error) {
	if bytes < 0 {
		return nil, fmt.Errorf("memory: negative allocation %d for %q", bytes, tag)
	}
	if m.capacity > 0 && m.live+bytes > m.capacity {
		return nil, fmt.Errorf("memory: alloc %q (%d bytes) over capacity (live %d / cap %d): %w",
			tag, bytes, m.live, m.capacity, ErrOutOfMemory)
	}
	a := &Allocation{bytes: bytes, tag: tag}
	m.live += bytes
	if m.live > m.peak {
		m.peak = m.live
	}
	m.record("alloc", tag, bytes)
	return a, nil
}

func (m *Allocator) record(event, tag string, bytes int64) {
	if !m.tracing {
		return
	}
	t := float64(len(m.trace))
	if m.clock != nil {
		t = m.clock()
	}
	m.trace = append(m.trace, TracePoint{Time: t, Live: m.live, Event: event, Tag: tag, Bytes: bytes})
}
