package kvcache

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func newMgr(t *testing.T, capBlocks int) *Manager {
	t.Helper()
	m, err := New(Config{BlockTokens: 16, BytesPerToken: 1024, CapacityBytes: int64(capBlocks) * 16 * 1024})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// seq produces a deterministic token sequence for a (stream, length) pair.
func seq(stream uint64, n int) []uint64 {
	out := make([]uint64, n)
	for i := range out {
		out[i] = stream<<32 | uint64(i)
	}
	return out
}

func TestLookupMissThenHit(t *testing.T) {
	m := newMgr(t, 100)
	toks := seq(1, 64)
	if got := m.Lookup(toks, 0); got != 0 {
		t.Fatalf("cold lookup = %d, want 0", got)
	}
	if ins := m.Insert(toks, len(toks), 1); ins != 64 {
		t.Fatalf("inserted %d tokens, want 64", ins)
	}
	if got := m.Lookup(toks, 2); got != 64 {
		t.Fatalf("warm lookup = %d, want 64", got)
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestPartialBlocksNotShared(t *testing.T) {
	m := newMgr(t, 100)
	toks := seq(1, 70) // 4 full blocks + 6 tokens
	m.Insert(toks, len(toks), 0)
	if got := m.Lookup(toks, 1); got != 64 {
		t.Fatalf("lookup = %d, want 64 (whole blocks only)", got)
	}
}

func TestPrefixSharingAcrossRequests(t *testing.T) {
	m := newMgr(t, 1000)
	prefix := seq(7, 160)
	a := append(append([]uint64{}, prefix...), seq(8, 32)...)
	b := append(append([]uint64{}, prefix...), seq(9, 32)...)
	m.Insert(a, len(a), 0)
	if got := m.Lookup(b, 1); got != 160 {
		t.Fatalf("request b prefix hit = %d, want 160", got)
	}
	// Diverging suffixes don't alias.
	if got := m.Lookup(append(append([]uint64{}, prefix...), seq(10, 32)...), 2); got != 160 {
		t.Fatalf("third request prefix hit = %d, want 160", got)
	}
}

func TestDivergentFirstBlockNoHit(t *testing.T) {
	m := newMgr(t, 100)
	m.Insert(seq(1, 64), 64, 0)
	if got := m.Lookup(seq(2, 64), 1); got != 0 {
		t.Fatalf("unrelated sequence hit = %d, want 0", got)
	}
}

func TestLRUEviction(t *testing.T) {
	m := newMgr(t, 8) // room for 8 blocks = 128 tokens
	a := seq(1, 64)
	b := seq(2, 64)
	c := seq(3, 64)
	m.Insert(a, 64, 1)
	m.Insert(b, 64, 2)
	// Touch a so b becomes coldest.
	m.Lookup(a, 3)
	m.Insert(c, 64, 4) // must evict b's blocks
	if got := m.Lookup(b, 5); got != 0 {
		t.Fatalf("b still cached (%d tokens) after LRU pressure", got)
	}
	if got := m.Lookup(a, 6); got != 64 {
		t.Fatalf("a hit = %d, want 64 (recently touched)", got)
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestSuffixDiscarding(t *testing.T) {
	// Capacity of 4 blocks; inserting a 10-block request keeps only the
	// first 4 blocks (the prefix) and discards the suffix.
	m := newMgr(t, 4)
	toks := seq(1, 160)
	ins := m.Insert(toks, len(toks), 0)
	if ins != 64 {
		t.Fatalf("inserted %d tokens, want 64 (4 blocks)", ins)
	}
	if got := m.Lookup(toks, 1); got != 64 {
		t.Fatalf("prefix hit = %d, want 64", got)
	}
	if got := m.Stats().RejectedBlocks; got != 6 {
		t.Fatalf("rejected %d blocks, want the 6-block discarded suffix", got)
	}
}

func TestPinPreventsEviction(t *testing.T) {
	m := newMgr(t, 4)
	a := seq(1, 64)
	m.Insert(a, 64, 0)
	pinned, release := m.PinH(flat(BlockHashes(a, 16)), 1)
	if pinned != 64 {
		t.Fatalf("pinned %d, want 64", pinned)
	}
	// Inserting b cannot evict pinned a: only 0 new blocks fit.
	ins := m.Insert(seq(2, 64), 64, 2)
	if ins != 0 {
		t.Fatalf("inserted %d tokens while cache fully pinned, want 0", ins)
	}
	if got := m.Stats().RejectedBlocks; got != 4 {
		t.Fatalf("rejected %d blocks, want all 4 of the insert", got)
	}
	release()
	release() // idempotent
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// After release, insertion evicts a.
	if ins := m.Insert(seq(3, 64), 64, 3); ins != 64 {
		t.Fatalf("post-release insert = %d, want 64", ins)
	}
}

func TestParentOutlivesChild(t *testing.T) {
	// Chain of 3 blocks, capacity 3. Inserting one new block must evict
	// the deepest block of the chain first, never the root.
	m := newMgr(t, 3)
	a := seq(1, 48)
	m.Insert(a, 48, 0)
	m.Insert(seq(2, 16), 16, 1)
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if got := m.Lookup(a, 2); got != 32 {
		t.Fatalf("after evicting chain tail, prefix hit = %d, want 32", got)
	}
}

func TestStatsHitRate(t *testing.T) {
	m := newMgr(t, 100)
	a := seq(1, 64)
	m.Insert(a, 64, 0)
	m.Lookup(a, 1)
	s := m.Stats()
	if s.HitRate() <= 0 || s.HitRate() > 1 {
		t.Fatalf("hit rate = %v", s.HitRate())
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{BlockTokens: 0, BytesPerToken: 1, CapacityBytes: 1}); err == nil {
		t.Error("accepted zero block tokens")
	}
	if _, err := New(Config{BlockTokens: 16, BytesPerToken: 0, CapacityBytes: 1}); err == nil {
		t.Error("accepted zero bytes per token")
	}
	if _, err := New(Config{BlockTokens: 16, BytesPerToken: 1, CapacityBytes: -1}); err == nil {
		t.Error("accepted negative capacity")
	}
}

func TestZeroCapacityCachesNothing(t *testing.T) {
	m, err := New(Config{BlockTokens: 16, BytesPerToken: 1024, CapacityBytes: 0})
	if err != nil {
		t.Fatal(err)
	}
	if ins := m.Insert(seq(1, 64), 64, 0); ins != 0 {
		t.Fatalf("zero-capacity cache inserted %d tokens", ins)
	}
}

func TestEvictAll(t *testing.T) {
	m := newMgr(t, 100)
	m.Insert(seq(1, 160), 160, 0)
	m.evictAll()
	if m.Len() != 0 || m.UsedBytes() != 0 {
		t.Fatalf("evictAll left %d blocks, %d bytes", m.Len(), m.UsedBytes())
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestPeekDoesNotTouchLRU(t *testing.T) {
	m := newMgr(t, 8)
	a := seq(1, 64)
	b := seq(2, 64)
	m.Insert(a, 64, 1)
	m.Insert(b, 64, 2)
	// Peek a many times; it must stay coldest and get evicted first.
	for i := 0; i < 10; i++ {
		if got := m.PeekH(flat(BlockHashes(a, 16))); got != 64 {
			t.Fatalf("peek = %d, want 64", got)
		}
	}
	m.Insert(seq(3, 64), 64, 3)
	if got := m.PeekH(flat(BlockHashes(a, 16))); got != 0 {
		t.Fatalf("a survived eviction after peeks (hit %d); Peek touched LRU", got)
	}
	if got := m.PeekH(flat(BlockHashes(b, 16))); got != 64 {
		t.Fatalf("b evicted instead of a (hit %d)", got)
	}
}

func TestReserveEvictsAndReportsShortfall(t *testing.T) {
	m := newMgr(t, 8) // 8 blocks = 128 KiB
	m.Insert(seq(1, 128), 128, 0)
	if m.Len() != 8 {
		t.Fatalf("setup: %d blocks cached", m.Len())
	}
	// Reserve half the pool: evicts 4 blocks, no shortfall.
	short, rel := m.Reserve(4 * 16 * 1024)
	if short != 0 {
		t.Fatalf("shortfall = %d, want 0", short)
	}
	if m.Len() != 4 {
		t.Fatalf("blocks after reserve = %d, want 4", m.Len())
	}
	// Reserve more than remains: full eviction plus shortfall.
	short2, rel2 := m.Reserve(10 * 16 * 1024)
	if short2 != 6*16*1024 {
		t.Fatalf("shortfall = %d, want %d", short2, 6*16*1024)
	}
	if m.reserved != m.CapacityBytes() {
		t.Fatalf("reserved %d, want full capacity", m.reserved)
	}
	// While reserved, inserts are rejected.
	if ins := m.Insert(seq(9, 64), 64, 5); ins != 0 {
		t.Fatalf("insert during full reservation cached %d tokens", ins)
	}
	rel()
	rel()
	rel2()
	if m.reserved != 0 {
		t.Fatalf("reserved %d after releases", m.reserved)
	}
	if ins := m.Insert(seq(9, 64), 64, 6); ins != 64 {
		t.Fatalf("insert after release cached %d tokens, want 64", ins)
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// Property: random interleavings of insert/lookup/pin/release never break
// invariants, and used bytes never exceed capacity.
func TestRandomOpsInvariants(t *testing.T) {
	f := func(opsSeed int64) bool {
		rng := rand.New(rand.NewSource(opsSeed))
		m, err := New(Config{BlockTokens: 16, BytesPerToken: 64,
			CapacityBytes: int64(rng.Intn(32)+1) * 16 * 64})
		if err != nil {
			return false
		}
		var releases []func()
		now := 0.0
		for i := 0; i < 200; i++ {
			now += rng.Float64()
			stream := uint64(rng.Intn(6))
			n := rng.Intn(120) + 1
			toks := seq(stream, n)
			switch rng.Intn(4) {
			case 0:
				m.Insert(toks, n, now)
			case 1:
				m.Lookup(toks, now)
			case 2:
				_, rel := m.PinH(flat(BlockHashes(toks, 16)), now)
				releases = append(releases, rel)
			case 3:
				if len(releases) > 0 {
					k := rng.Intn(len(releases))
					releases[k]()
					releases = append(releases[:k], releases[k+1:]...)
				}
			}
			if m.UsedBytes() > m.CapacityBytes() {
				return false
			}
			if err := m.CheckInvariants(); err != nil {
				t.Logf("invariant violation: %v", err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// --- change-notification feed ---

// cloneEvent copies an event out of the slices the Manager reuses.
func cloneEvent(ev ChangeEvent) ChangeEvent {
	return ChangeEvent{Inserted: slices.Clone(ev.Inserted), Evicted: slices.Clone(ev.Evicted)}
}

func TestSubscribeReportsInsertsAndEvictions(t *testing.T) {
	m := newMgr(t, 4)
	var events []ChangeEvent
	m.Subscribe(func(ev ChangeEvent) { events = append(events, cloneEvent(ev)) })

	chainA := BlockHashes(seq(1, 4*16), 16)
	m.InsertH(flat(chainA), 1)
	if len(events) != 1 {
		t.Fatalf("events after insert = %d, want 1", len(events))
	}
	if len(events[0].Inserted) != 4 || len(events[0].Evicted) != 0 {
		t.Fatalf("first event = %+v, want 4 inserted / 0 evicted", events[0])
	}

	// Re-inserting the same chain only refreshes LRU: no membership
	// change, no event.
	m.InsertH(flat(chainA), 2)
	if len(events) != 1 {
		t.Fatalf("refresh emitted an event: %+v", events[len(events)-1])
	}

	// Pins do not change membership either.
	_, unpin := m.PinH(flat(chainA), 3)
	unpin()
	if len(events) != 1 {
		t.Fatal("pin/unpin emitted an event")
	}

	// A new chain in a full pool evicts A's blocks: one event carrying
	// both the insertions and the evictions.
	chainB := BlockHashes(seq(2, 2*16), 16)
	m.InsertH(flat(chainB), 4)
	if len(events) != 2 {
		t.Fatalf("events after displacing insert = %d, want 2", len(events))
	}
	if len(events[1].Inserted) != 2 || len(events[1].Evicted) != 2 {
		t.Fatalf("second event = %+v, want 2 inserted / 2 evicted", events[1])
	}
	inA := map[uint64]bool{}
	for _, h := range chainA {
		inA[h] = true
	}
	for _, h := range events[1].Evicted {
		if !inA[h] {
			t.Fatalf("evicted hash %x is not one of A's blocks", h)
		}
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestSubscribeReportsReserveAndEvictAll(t *testing.T) {
	m := newMgr(t, 4)
	var events []ChangeEvent
	m.Subscribe(func(ev ChangeEvent) { events = append(events, cloneEvent(ev)) })

	m.InsertH(flat(BlockHashes(seq(1, 4*16), 16)), 1)
	events = events[:0]

	// Reserving half the pool must evict two blocks and report them.
	if short, release := m.Reserve(2 * 16 * 1024); short != 0 {
		t.Fatalf("shortfall %d on satisfiable reserve", short)
	} else {
		defer release()
	}
	if len(events) != 1 || len(events[0].Evicted) != 2 || len(events[0].Inserted) != 0 {
		t.Fatalf("reserve events = %+v, want one with 2 evicted", events)
	}

	events = events[:0]
	m.evictAll()
	if len(events) != 1 || len(events[0].Evicted) != 2 {
		t.Fatalf("evictAll events = %+v, want one with the 2 remaining blocks", events)
	}
	if m.Len() != 0 {
		t.Fatalf("%d blocks remain after evictAll", m.Len())
	}

	// An empty operation emits nothing.
	events = events[:0]
	m.evictAll()
	if _, release := m.Reserve(1024); true {
		release()
	}
	if len(events) != 0 {
		t.Fatalf("no-op operations emitted %+v", events)
	}
}

// insertEvictBlocks is the pool of insertEvictPool: one L4 instance of
// the benchmark's long-unique workload.
const insertEvictBlocks = 2800

// insertEvictPool returns an empty 2,800-block pool with a subscriber that
// only reads its events, as a scheduler's feed does.
func insertEvictPool(tb testing.TB) *Manager {
	m, err := New(Config{BlockTokens: 16, BytesPerToken: 1, CapacityBytes: insertEvictBlocks * 16})
	if err != nil {
		tb.Fatal(err)
	}
	var changed int
	m.Subscribe(func(ev ChangeEvent) { changed += len(ev.Inserted) + len(ev.Evicted) })
	return m
}

// insertEvictChains returns insertEvictPool's pool and two unrelated
// 3,125-block (50k-token) chains. Inserting either chain evicts every
// block of the other and discards its own suffix, as each new document
// does there.
func insertEvictChains(tb testing.TB) (*Manager, [2][]uint64) {
	rng := rand.New(rand.NewSource(1))
	var chains [2][]uint64
	for i := range chains {
		chains[i] = BlockHashes(randTokens(rng, 3125*16), 16)
	}
	return insertEvictPool(tb), chains
}

// TestFillGrowsOnceToPool: the insert that takes a fresh cache past
// minIndexCells/2 blocks sizes the slab at the pool's block count and the
// index for it, and filling the pool and evicting through it leave both
// as they are.
func TestFillGrowsOnceToPool(t *testing.T) {
	m, chains := insertEvictChains(t)
	m.InsertH(flat(chains[0][:minIndexCells/2]), 1)
	if cap(m.slab) > minIndexCells/2 || len(m.index.refs) != minIndexCells {
		t.Fatalf("%d blocks: slab capacity %d, %d index cells; want at most %d and %d",
			m.Len(), cap(m.slab), len(m.index.refs), minIndexCells/2, minIndexCells)
	}
	m.InsertH(flat(chains[0][:minIndexCells/2+1]), 2)
	cells := len(m.index.refs)
	if cap(m.slab) != insertEvictBlocks || cells != 8192 {
		t.Fatalf("%d blocks: slab capacity %d, %d index cells; want %d and 8192",
			m.Len(), cap(m.slab), cells, insertEvictBlocks)
	}
	for k, chain := range [][]uint64{chains[0], chains[1], chains[0]} {
		m.InsertH(flat(chain), float64(3+k))
		if cap(m.slab) != insertEvictBlocks || len(m.index.refs) != cells {
			t.Fatalf("insert %d: slab capacity %d, %d index cells; want %d and %d",
				k, cap(m.slab), len(m.index.refs), insertEvictBlocks, cells)
		}
	}
	if m.Len() != insertEvictBlocks {
		t.Fatalf("%d blocks cached, want the full pool of %d", m.Len(), insertEvictBlocks)
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestSmallCacheAllocatesNoPool: a cache that never holds more than
// minIndexCells/2 blocks keeps its first slab and index however large its
// pool, so a short run on a large device allocates no pool-sized arrays.
func TestSmallCacheAllocatesNoPool(t *testing.T) {
	m, err := New(Config{BlockTokens: 16, BytesPerToken: 1, CapacityBytes: 1 << 20 * 16})
	if err != nil {
		t.Fatal(err)
	}
	for user := uint64(1); user <= 20; user++ {
		m.Insert(seq(user, 4*16), 4*16, float64(user))
		m.Insert(seq(user, 8*16), 8*16, float64(user))
		if user%2 == 0 {
			m.evictAll()
		} else {
			m.LoseAll()
		}
	}
	if got := m.Stats().InsertedBlocks; got != 20*8 {
		t.Fatalf("inserted %d blocks, want %d", got, 20*8)
	}
	if cap(m.slab) > minIndexCells/2 || len(m.index.refs) != minIndexCells {
		t.Fatalf("slab capacity %d, %d index cells; want at most %d and %d",
			cap(m.slab), len(m.index.refs), minIndexCells/2, minIndexCells)
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestCheckInvariantsChecksCells: a live block whose recorded index cell
// is not the one that maps its hash to its slot fails CheckInvariants.
func TestCheckInvariantsChecksCells(t *testing.T) {
	m := newMgr(t, 100)
	m.Insert(seq(1, 64), 64, 0)
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	m.slab[0].cell, m.slab[1].cell = m.slab[1].cell, m.slab[0].cell
	if err := m.CheckInvariants(); err == nil {
		t.Fatal("CheckInvariants accepted two blocks with swapped index cells")
	}
}

// TestInsertAllocs pins the steady state of an insert that evicts a whole
// chain: once the slab, the index and the change lists have grown, it
// allocates nothing.
func TestInsertAllocs(t *testing.T) {
	m, chains := insertEvictChains(t)
	now := 0.0
	insert := func() {
		now++
		m.InsertH(flat(chains[int(now)%2]), now)
	}
	insert()
	insert()
	before := m.Stats().EvictedBlocks
	// AllocsPerRun calls insert once more than it is asked to.
	if allocs := testing.AllocsPerRun(20, insert); allocs != 0 {
		t.Fatalf("InsertH evicting a whole chain allocated %v times per call, want 0", allocs)
	}
	if got, want := m.Stats().EvictedBlocks-before, int64(21*2800); got != want {
		t.Fatalf("21 inserts evicted %d blocks, want %d", got, want)
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

var growSink []uint64

// TestInsertGrowsChangeListsOnce: with a subscriber attached, an insert
// grows each change list once, up front, by the blocks it may add, which
// a 3,125-block chain's insert into a 2,800-block pool caps at the pool,
// instead of doubling it as blocks are appended. So the first insert into
// a fresh cache leaves the Inserted list at one growth's capacity, and an
// insert into empty lists allocates what growing each list once does,
// though it adds and evicts thousands of blocks.
func TestInsertGrowsChangeListsOnce(t *testing.T) {
	m, chains := insertEvictChains(t)
	m.InsertH(flat(chains[0]), 1)
	if got, want := cap(m.pending.Inserted), cap(slices.Grow([]uint64(nil), insertEvictBlocks)); got != want {
		t.Fatalf("the first insert of a %d-block chain left the Inserted list at capacity %d, want %d from one growth",
			len(chains[0]), got, want)
	}
	now := 1.0
	insert := func() {
		now++
		m.pending = ChangeEvent{}
		m.InsertH(flat(chains[int(now)%2]), now)
	}
	// One growth is one allocation, or two where the race detector
	// instruments append.
	grow := testing.AllocsPerRun(10, func() { growSink = slices.Grow([]uint64(nil), insertEvictBlocks) })
	if allocs := testing.AllocsPerRun(10, insert); allocs != 2*grow {
		t.Fatalf("an insert into empty change lists allocated %v times per call, want %v: one growth of each list", allocs, 2*grow)
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkCacheInsertEvict inserts a fresh 3,125-block chain per op into
// a full 2,800-block pool: 2,800 inserts, 2,800 evictions and 325
// discarded suffix blocks, the per-instance shape of long-unique.
func BenchmarkCacheInsertEvict(b *testing.B) {
	m, chains := insertEvictChains(b)
	m.InsertH(flat(chains[0]), 0)
	m.InsertH(flat(chains[1]), 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.InsertH(flat(chains[i%2]), float64(i+1))
	}
}

// BenchmarkCacheFill runs one benchmark run's life of a cache per op: a
// fresh 2,800-block pool is filled by one 3,125-block chain, which
// discards its 325-block suffix, and then evicted through by the other.
// It prices the slab's and the index's growth, which the steady-state
// BenchmarkCacheInsertEvict never meets.
func BenchmarkCacheFill(b *testing.B) {
	_, chains := insertEvictChains(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := insertEvictPool(b)
		m.InsertH(flat(chains[0]), 1)
		m.InsertH(flat(chains[1]), 2)
	}
}

// hitPathProfileBlocks and hitPathSuffixBlocks shape a request of the
// benchmark's prefix-reuse workload (WL1): an 845-block user profile and
// a 30-block post, 875 blocks of which ~97% hit.
const (
	hitPathProfileBlocks = 845
	hitPathSuffixBlocks  = 30
	hitPathChains        = 128
)

// hitPathPool returns a warm pool holding an 845-block profile and 64
// requests' 30-block posts, and 128 request chains that each reference
// the profile's chain as their Shared part, as requests that declare the
// profile as a sched.Prefix do, and own their post. The pool is 2,765
// blocks, so by the time a chain comes round again its post has been
// evicted: each request hits the profile and inserts its post fresh,
// evicting the oldest post.
func hitPathPool(tb testing.TB) (*Manager, []*Chain) {
	m, err := New(Config{BlockTokens: 16, BytesPerToken: 1, CapacityBytes: (hitPathProfileBlocks + 64*hitPathSuffixBlocks) * 16})
	if err != nil {
		tb.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	profile := randTokens(rng, hitPathProfileBlocks*16)
	shared := BlockHashes(profile, 16)
	chains := make([]*Chain, hitPathChains)
	for i := range chains {
		toks := append(slices.Clone(profile), randTokens(rng, hitPathSuffixBlocks*16)...)
		c := ExtendBlockHashes(shared, toks, 16)
		chains[i] = &c
	}
	for i, chain := range chains {
		m.InsertH(chain, float64(i))
	}
	return m, chains
}

// hitPathRequest serves a chain at time now as an engine does: pin the
// cached prefix at dispatch, release it and insert the chain at finish.
func hitPathRequest(m *Manager, chain *Chain, now float64) {
	_, release := m.PinH(chain, now)
	release()
	m.InsertH(chain, now)
}

// TestHitPathAllocs pins the hit path's allocations: inserting a request's
// chain onto its cached profile allocates nothing, and a pin allocates at
// most its release closure and the flag the closure captures.
func TestHitPathAllocs(t *testing.T) {
	m, chains := hitPathPool(t)
	now := float64(len(chains))
	k := 0
	next := func() *Chain {
		k++
		now++
		return chains[k%len(chains)]
	}
	if allocs := testing.AllocsPerRun(50, func() { m.InsertH(next(), now) }); allocs != 0 {
		t.Fatalf("InsertH of a request onto its cached profile allocated %v times per call, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(50, func() {
		_, release := m.PinH(next(), now)
		release()
	}); allocs > 2 {
		t.Fatalf("PinH and its release allocated %v times per call, want at most 2", allocs)
	}
	hitPathRequest(m, next(), now)
	if got, want := m.PeekH(chains[k%len(chains)]), (hitPathProfileBlocks+hitPathSuffixBlocks)*16; got != want {
		t.Fatalf("after a request its chain hits %d tokens, want all %d", got, want)
	}
	if got, want := m.PeekH(chains[(k+1)%len(chains)]), hitPathProfileBlocks*16; got != want {
		t.Fatalf("a chain not served in the last 64 requests hits %d tokens, want the %d-token profile", got, want)
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if err := m.CheckIdle(); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkCacheHitPath serves one prefix-reuse-shaped request per op
// against a warm pool: PinH of an 875-block chain whose 845-block profile
// is cached, its release, and InsertH of the chain, which adds a fresh
// 30-block post and evicts the oldest one.
func BenchmarkCacheHitPath(b *testing.B) {
	m, chains := hitPathPool(b)
	now := float64(len(chains))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now++
		hitPathRequest(m, chains[i%len(chains)], now)
	}
}
