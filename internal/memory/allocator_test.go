package memory

import (
	"errors"
	"testing"
	"testing/quick"
)

// mustAlloc is Alloc on an allocator the allocation must fit.
func mustAlloc(t *testing.T, m *Allocator, bytes int64, tag string) *Allocation {
	t.Helper()
	a, err := m.Alloc(bytes, tag)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestAllocFreeAccounting(t *testing.T) {
	m := New(0)
	a, err := m.Alloc(100, "a")
	if err != nil {
		t.Fatal(err)
	}
	b, err := m.Alloc(50, "b")
	if err != nil {
		t.Fatal(err)
	}
	if m.Live() != 150 {
		t.Fatalf("live = %d, want 150", m.Live())
	}
	m.Free(a)
	if m.Live() != 50 {
		t.Fatalf("live after free = %d, want 50", m.Live())
	}
	if m.Peak() != 150 {
		t.Fatalf("peak = %d, want 150", m.Peak())
	}
	m.Free(b)
	if m.Live() != 0 {
		t.Fatalf("live = %d, want 0", m.Live())
	}
}

func TestOOMEnforcement(t *testing.T) {
	m := New(100)
	a, err := m.Alloc(80, "a")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Alloc(30, "b"); !errors.Is(err, ErrOutOfMemory) {
		t.Fatalf("expected ErrOutOfMemory, got %v", err)
	}
	m.Free(a)
	if _, err := m.Alloc(30, "b"); err != nil {
		t.Fatalf("alloc after free failed: %v", err)
	}
}

func TestDoubleFreePanics(t *testing.T) {
	m := New(0)
	a := mustAlloc(t, m, 10, "x")
	m.Free(a)
	defer func() {
		if recover() == nil {
			t.Fatal("double free did not panic")
		}
	}()
	m.Free(a)
}

func TestFreeNilNoop(t *testing.T) {
	m := New(0)
	m.Free(nil)
	if m.Live() != 0 {
		t.Fatal("Free(nil) changed accounting")
	}
}

func TestNegativeAllocRejected(t *testing.T) {
	m := New(0)
	if _, err := m.Alloc(-5, "neg"); err == nil {
		t.Fatal("negative allocation accepted")
	}
}

func TestTraceRecordsEvents(t *testing.T) {
	m := New(0)
	m.StartTrace()
	a := mustAlloc(t, m, 10, "t1")
	b := mustAlloc(t, m, 20, "t2")
	m.Free(a)
	m.Free(b)
	tr := m.StopTrace()
	if len(tr) != 4 {
		t.Fatalf("trace length = %d, want 4", len(tr))
	}
	if tr[1].Live != 30 || tr[3].Live != 0 {
		t.Fatalf("trace live values wrong: %+v", tr)
	}
	for i, want := range []TracePoint{
		{Event: "alloc", Tag: "t1", Bytes: 10},
		{Event: "alloc", Tag: "t2", Bytes: 20},
		{Event: "free", Tag: "t1", Bytes: 10},
		{Event: "free", Tag: "t2", Bytes: 20},
	} {
		if p := tr[i]; p.Event != want.Event || p.Tag != want.Tag || p.Bytes != want.Bytes {
			t.Fatalf("trace point %d = %+v, want %s %s %d", i, p, want.Event, want.Tag, want.Bytes)
		}
	}
}

func TestTraceUsesClock(t *testing.T) {
	m := New(0)
	now := 1.5
	m.SetClock(func() float64 { return now })
	m.StartTrace()
	a := mustAlloc(t, m, 1, "x")
	now = 2.5
	m.Free(a)
	tr := m.StopTrace()
	if tr[0].Time != 1.5 || tr[1].Time != 2.5 {
		t.Fatalf("trace times = %v, %v; want 1.5, 2.5", tr[0].Time, tr[1].Time)
	}
}

func TestResetPeak(t *testing.T) {
	m := New(0)
	a := mustAlloc(t, m, 100, "a")
	m.Free(a)
	m.ResetPeak()
	if m.Peak() != 0 {
		t.Fatalf("peak after reset = %d, want 0", m.Peak())
	}
}

// Property: for any sequence of alloc/free operations, live equals the sum
// of outstanding allocations and peak >= live at all times.
func TestAllocatorInvariants(t *testing.T) {
	f := func(sizes []uint16) bool {
		m := New(0)
		var live int64
		var allocs []*Allocation
		for i, s := range sizes {
			if i%3 == 2 && len(allocs) > 0 {
				// Free the oldest outstanding allocation.
				a := allocs[0]
				allocs = allocs[1:]
				live -= a.Bytes()
				m.Free(a)
			} else {
				a := mustAlloc(t, m, int64(s), "p")
				allocs = append(allocs, a)
				live += int64(s)
			}
			if m.Live() != live || m.Peak() < m.Live() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
