package kvcache

// Recency: LookupH, PinH and InsertH touch only the deepest block of a
// chain's cached prefix, and remove folds a block's timestamp into its
// parent's. The per-block walks they replaced are kept below as the
// reference, and one random script drives a Manager through each: every
// return value, change event, counter and eviction must agree.

import (
	"math/rand"
	"slices"
	"testing"
)

// refLookupH, refPinH and refInsertH are the walks as they stood before
// the hit paths touched only the deepest cached block: each probes,
// stamps and (for pins and inserts) pins every block of the hit prefix.
// refPinH also keeps the Manager's count of pin handles, so the two
// counts can be compared.
func refLookupH(m *Manager, hashes []uint64, now float64) int {
	m.stats.LookupTokens += int64(len(hashes) * m.blockTokens)
	hit := 0
	for _, hash := range hashes {
		i, ok := m.index.get(hash)
		if !ok {
			break
		}
		m.slab[i].lastUsed = now
		m.lru.fix(m.slab, i)
		hit += m.blockTokens
	}
	m.stats.HitTokens += int64(hit)
	return hit
}

func refPinH(m *Manager, hashes []uint64, now float64) (int, func()) {
	m.stats.LookupTokens += int64(len(hashes) * m.blockTokens)
	var pinned []int32
	for _, hash := range hashes {
		i, ok := m.index.get(hash)
		if !ok {
			break
		}
		m.slab[i].pins++
		m.lru.remove(m.slab, i)
		m.slab[i].lastUsed = now
		pinned = append(pinned, i)
	}
	hit := len(pinned) * m.blockTokens
	m.stats.HitTokens += int64(hit)
	if hit > 0 {
		m.pinned++
	}
	released := false
	return hit, func() {
		if released {
			return
		}
		released = true
		if hit > 0 {
			m.pinned--
		}
		refUnpin(m, pinned)
	}
}

func refUnpin(m *Manager, slots []int32) {
	for _, i := range slots {
		m.slab[i].pins--
		m.maybeEvictable(i)
	}
}

func refInsertH(m *Manager, hashes []uint64, now float64) int {
	defer m.flushChanges()
	cached := 0
	parent := int32(-1)
	var path []int32
	for k, hash := range hashes {
		if i, ok := m.index.get(hash); ok {
			b := &m.slab[i]
			b.lastUsed = now
			b.pins++
			m.lru.remove(m.slab, i)
			path = append(path, i)
			cached += m.blockTokens
			parent = i
			continue
		}
		if !m.reclaim(m.bytesPerBlock) {
			m.stats.RejectedBlocks += int64(len(hashes) - k)
			break
		}
		if m.host != nil {
			m.host.remove(hash)
		}
		i := m.alloc()
		b := &m.slab[i]
		*b = block{hash: hash, lastUsed: now, parent: parent, depth: 1, pins: 1, heapIdx: -1}
		if parent >= 0 {
			p := &m.slab[parent]
			b.depth = p.depth + 1
			p.children++
		}
		m.index.put(hash, i)
		m.used += m.bytesPerBlock
		if len(m.subs) > 0 {
			m.pending.Inserted = append(m.pending.Inserted, hash)
		}
		path = append(path, i)
		m.stats.InsertedBlocks++
		cached += m.blockTokens
		parent = i
	}
	refUnpin(m, path)
	return cached
}

// recencyOps returns a seeded random sequence of n/2 ops for
// runRecencyOps.
func recencyOps(seed int64, n int) []byte {
	ops := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(ops)
	return ops
}

// recencyPair is the Manager under test and the one driven by the
// reference walks, each with the change events it has emitted.
type recencyPair struct {
	got, ref       *Manager
	gotEvs, refEvs []ChangeEvent
}

func newRecencyPair(t *testing.T, host bool) *recencyPair {
	cfg := Config{BlockTokens: closureBlockTokens, BytesPerToken: 1, CapacityBytes: 16 * closureBlockTokens}
	if host {
		cfg.HostCapacityBytes = 8 * closureBlockTokens
	}
	p := &recencyPair{}
	for _, m := range []**Manager{&p.got, &p.ref} {
		var err error
		if *m, err = New(cfg); err != nil {
			t.Fatal(err)
		}
	}
	p.got.Subscribe(func(ev ChangeEvent) { p.gotEvs = append(p.gotEvs, cloneEvent(ev)) })
	p.ref.Subscribe(func(ev ChangeEvent) { p.refEvs = append(p.refEvs, cloneEvent(ev)) })
	return p
}

// compare fails the test unless both Managers emitted the same change
// events and agree on every observable: counters, sizes, held pins,
// invariants and, per chain, the GPU and host hits. It reads the pin
// count directly: CheckIdle formats an error whenever a pin is held,
// which would dominate the fuzzer's time.
func (p *recencyPair) compare(t *testing.T, op int, chains [][]uint64) {
	if len(p.gotEvs) != len(p.refEvs) {
		t.Fatalf("op %d: %d change events, reference %d", op, len(p.gotEvs), len(p.refEvs))
	}
	for k := range p.gotEvs {
		g, r := p.gotEvs[k], p.refEvs[k]
		if !slices.Equal(g.Inserted, r.Inserted) || !slices.Equal(g.Evicted, r.Evicted) {
			t.Fatalf("op %d: change event %+v, reference %+v", op, g, r)
		}
	}
	p.gotEvs, p.refEvs = p.gotEvs[:0], p.refEvs[:0]
	if g, r := p.got.Stats(), p.ref.Stats(); g != r {
		t.Fatalf("op %d: stats %+v, reference %+v", op, g, r)
	}
	if p.got.Len() != p.ref.Len() || p.got.UsedBytes() != p.ref.UsedBytes() ||
		p.got.ReservedBytes() != p.ref.ReservedBytes() || p.got.HostUsedBytes() != p.ref.HostUsedBytes() {
		t.Fatalf("op %d: %d blocks, %d used, %d reserved, %d on host; reference %d, %d, %d, %d", op,
			p.got.Len(), p.got.UsedBytes(), p.got.ReservedBytes(), p.got.HostUsedBytes(),
			p.ref.Len(), p.ref.UsedBytes(), p.ref.ReservedBytes(), p.ref.HostUsedBytes())
	}
	if p.got.pinned != p.ref.pinned {
		t.Fatalf("op %d: %d pins held, reference %d", op, p.got.pinned, p.ref.pinned)
	}
	if err := p.got.CheckInvariants(); err != nil {
		t.Fatalf("op %d: %v", op, err)
	}
	if err := p.ref.CheckInvariants(); err != nil {
		t.Fatalf("op %d: reference: %v", op, err)
	}
	for c, ch := range chains {
		g, r := p.got.PeekH(ch), p.ref.PeekH(ch)
		if g != r {
			t.Fatalf("op %d: PeekH(chain %d) = %d, reference %d", op, c, g, r)
		}
		for _, skip := range []int{0, g / closureBlockTokens} {
			if gh, rh := p.got.HostHitH(ch, skip), p.ref.HostHitH(ch, skip); gh != rh {
				t.Fatalf("op %d: HostHitH(chain %d, %d) = %d, reference %d", op, c, skip, gh, rh)
			}
		}
	}
}

// runRecencyOps applies the cache operations encoded in ops, two bytes
// each (operation, argument), to a Manager and to the reference, each a
// 16-block GPU tier with or without an 8-block host tier, and compares
// them after every operation. The clock never decreases, but only one
// operation in six moves it, and a third of those by zero: timestamps
// repeat, so the LRU heap meets ties of equal timestamp and equal depth.
func runRecencyOps(t *testing.T, ops []byte, host bool) {
	p := newRecencyPair(t, host)
	chains := closureChains()
	type releasePair struct{ got, ref func() }
	var releases []releasePair
	now := 0.0
	for i := 0; i+1 < len(ops); i += 2 {
		op, arg := ops[i]%12, int(ops[i+1])
		chain := chains[arg%len(chains)]
		switch op {
		case 0, 1, 2: // insert a prefix of a chain; a full pool rejects its suffix
			h := chain[:arg/len(chains)%(len(chain)+1)]
			if g, r := p.got.InsertH(h, now), refInsertH(p.ref, h, now); g != r {
				t.Fatalf("op %d: InsertH = %d, reference %d", i/2, g, r)
			}
		case 3, 4: // pin a chain's cached prefix until released
			g, gotRel := p.got.PinH(chain, now)
			r, refRel := refPinH(p.ref, chain, now)
			if g != r {
				t.Fatalf("op %d: PinH = %d, reference %d", i/2, g, r)
			}
			releases = append(releases, releasePair{gotRel, refRel})
		case 5: // reserve pool space, evicting, until released
			bytes := int64(arg%16) * closureBlockTokens
			g, gotRel := p.got.Reserve(bytes)
			r, refRel := p.ref.Reserve(bytes)
			if g != r {
				t.Fatalf("op %d: Reserve shortfall = %d, reference %d", i/2, g, r)
			}
			releases = append(releases, releasePair{gotRel, refRel})
		case 6, 7: // release a pin or a reservation, sometimes twice
			if len(releases) > 0 {
				k := arg % len(releases)
				releases[k].got()
				releases[k].ref()
				if arg&1 == 0 {
					releases = slices.Delete(releases, k, k+1)
				}
			}
		case 8: // refresh a chain's cached prefix in the LRU
			if g, r := p.got.LookupH(chain, now), refLookupH(p.ref, chain, now); g != r {
				t.Fatalf("op %d: LookupH = %d, reference %d", i/2, g, r)
			}
		case 9:
			if arg%4 == 0 {
				p.got.LoseAll()
				p.ref.LoseAll()
			} else {
				p.got.EvictAll()
				p.ref.EvictAll()
			}
		case 10, 11: // move the clock forward by 0, 1 or 2
			now += float64(arg % 3)
		}
		p.compare(t, i/2, chains)
	}
	for _, rel := range releases {
		rel.got()
		rel.ref()
	}
	p.compare(t, len(ops)/2, chains) // the releases count as one last op
	if err := p.got.CheckIdle(); err != nil {
		t.Fatalf("after every release: %v", err)
	}
}

// TestRecencyMatchesReference runs 200 seeded 400-op scripts, each with
// the host tier off and on.
func TestRecencyMatchesReference(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		ops := recencyOps(seed, 800)
		runRecencyOps(t, ops, false)
		runRecencyOps(t, ops, true)
	}
}

// FuzzRecencyMatchesReference runs the same comparison on fuzzed
// scripts. Its seeds are 100 ops, not the test's 400: the fuzzer
// minimizes every input that reaches new coverage, and on 400-op inputs
// that took most of a 20 s run.
func FuzzRecencyMatchesReference(f *testing.F) {
	for seed := int64(0); seed < 8; seed++ {
		f.Add(recencyOps(seed, 200))
	}
	f.Fuzz(func(t *testing.T, ops []byte) {
		runRecencyOps(t, ops, false)
		runRecencyOps(t, ops, true)
	})
}
