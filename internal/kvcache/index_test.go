package kvcache

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// Fixed seed words for the table tests, so every run probes alike.
const (
	testSeed0 = 0x243f6a8885a308d3
	testSeed1 = 0x13198a2e03707344
)

// clusterKeys returns keys whose probe runs start in the last three or
// first two cells of the 16-, 32- and 64-cell tables (the home in a
// smaller table is the low bits of the home in a larger one), so they
// share one run that wraps past the last cell. Keys 0, 2^63 and 2^64-1
// join them with homes anywhere.
func clusterKeys(seed0, seed1 uint64) []uint64 {
	probe := newBlockIndex(64, seed0, seed1)
	keys := []uint64{0, 1 << 63, math.MaxUint64}
	for k := uint64(1); len(keys) < 24; k++ {
		if h := probe.home(k); h >= 61 || h <= 1 {
			keys = append(keys, k)
		}
	}
	return keys
}

// runIndexOps applies the operations encoded in ops, two bytes each
// (operation, argument), to a 16-cell table and to a map, and after each
// checks that every key of the universe maps alike in both and that the
// table holds no other key. Up to 24 live keys grow the table to 64
// cells, so the run of clustered keys wraps at every size.
func runIndexOps(t *testing.T, seed0, seed1 uint64, ops []byte) {
	keys := clusterKeys(seed0, seed1)
	idx := newBlockIndex(minIndexCells, seed0, seed1)
	ref := map[uint64]int32{}
	for i := 0; i+1 < len(ops); i += 2 {
		op, arg := ops[i]%3, int(ops[i+1])
		key := keys[arg%len(keys)]
		switch op {
		case 0, 1: // insert, or overwrite a present key's slot
			idx.put(key, int32(arg))
			ref[key] = int32(arg)
		case 2:
			idx.del(key)
			delete(ref, key)
		}
		for _, k := range keys {
			got, ok := idx.get(k)
			want, wantOK := ref[k]
			if ok != wantOK || (ok && got != want) {
				t.Fatalf("op %d (%d, %d): get(%x) = %d, %v; map has %d, %v", i/2, op, arg, k, got, ok, want, wantOK)
			}
		}
		occupied := 0
		for _, ref := range idx.refs {
			if ref != 0 {
				occupied++
			}
		}
		if occupied != len(ref) || idx.n != len(ref) {
			t.Fatalf("op %d (%d, %d): %d cells occupied, count %d, map has %d keys", i/2, op, arg, occupied, idx.n, len(ref))
		}
		if 2*idx.n > len(idx.refs) {
			t.Fatalf("op %d: %d keys in %d cells, over half full", i/2, idx.n, len(idx.refs))
		}
	}
}

// TestBlockIndexMatchesMap drives random insert, overwrite, lookup and
// delete scripts through the table and a Go map, under the test seed and
// four random ones.
func TestBlockIndexMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	seeds := [][2]uint64{{testSeed0, testSeed1}}
	for len(seeds) < 5 {
		seeds = append(seeds, [2]uint64{rng.Uint64(), rng.Uint64()})
	}
	for _, s := range seeds {
		if !clusterWraps(s[0], s[1]) {
			t.Fatalf("seed %x: no clustered key's probe run wraps past the last cell", s)
		}
		for script := int64(0); script < 100; script++ {
			runIndexOps(t, s[0], s[1], closureOps(script))
		}
	}
}

// clusterWraps reports whether some clustered key, inserted into a
// 64-cell table, sits in a cell before its home.
func clusterWraps(seed0, seed1 uint64) bool {
	idx := newBlockIndex(64, seed0, seed1)
	for i, k := range clusterKeys(seed0, seed1) {
		idx.put(k, int32(i))
	}
	for i, ref := range idx.refs {
		if ref != 0 && i < idx.home(idx.hashes[i]) {
			return true
		}
	}
	return false
}

func FuzzBlockIndex(f *testing.F) {
	for seed := int64(0); seed < 8; seed++ {
		f.Add(closureOps(seed))
	}
	f.Fuzz(func(t *testing.T, ops []byte) { runIndexOps(t, testSeed0, testSeed1, ops) })
}

// runTwinOps applies one random script to two Managers whose indexes are
// seeded differently and requires identical return values, Stats, sizes
// and change events after every operation: nothing observable may depend
// on where the table puts a hash.
func runTwinOps(t *testing.T, host bool, ops []byte) {
	cfg := Config{BlockTokens: closureBlockTokens, BytesPerToken: 1, CapacityBytes: 12 * closureBlockTokens}
	if host {
		cfg.HostCapacityBytes = 8 * closureBlockTokens
	}
	var twins [2]*Manager
	var events [2][]ChangeEvent
	for k := range twins {
		m, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		m.index = newBlockIndex(minIndexCells, testSeed0+uint64(k), testSeed1*uint64(k+1))
		m.Subscribe(func(ev ChangeEvent) { events[k] = append(events[k], cloneEvent(ev)) })
		twins[k] = m
	}
	chains := closureChains()
	var releases [2][]func()
	now := 0.0
	for i := 0; i+1 < len(ops); i += 2 {
		op, arg := ops[i]%8, int(ops[i+1])
		chain := chains[arg%len(chains)]
		now++
		var got [2][2]int64
		for k, m := range twins {
			switch op {
			case 0, 1:
				got[k][0] = int64(m.InsertH(chain[:arg/len(chains)%(len(chain)+1)], now))
			case 2:
				short, release := m.Reserve(int64(arg%16) * closureBlockTokens)
				got[k][0] = short
				releases[k] = append(releases[k], release)
			case 3:
				hit, release := m.PinH(chain, now)
				got[k][0] = int64(hit)
				releases[k] = append(releases[k], release)
			case 4:
				if n := len(releases[k]); n > 0 {
					j := arg % n
					releases[k][j]()
					releases[k] = slices.Delete(releases[k], j, j+1)
				}
			case 5:
				m.EvictAll()
			case 6:
				m.LoseAll()
			case 7:
				got[k][0] = int64(m.LookupH(chain, now))
				got[k][1] = int64(m.HostHitH(chain, m.PeekH(chain)/closureBlockTokens))
			}
		}
		a, b := twins[0], twins[1]
		if got[0] != got[1] {
			t.Fatalf("op %d (%d, %d): results %v and %v differ", i/2, op, arg, got[0], got[1])
		}
		if a.Stats() != b.Stats() || a.Len() != b.Len() || a.UsedBytes() != b.UsedBytes() || a.HostUsedBytes() != b.HostUsedBytes() {
			t.Fatalf("op %d (%d, %d): state differs: %+v, %d blocks vs %+v, %d blocks", i/2, op, arg, a.Stats(), a.Len(), b.Stats(), b.Len())
		}
		if err := a.CheckInvariants(); err != nil {
			t.Fatalf("op %d (%d, %d): %v", i/2, op, arg, err)
		}
	}
	if len(events[0]) != len(events[1]) {
		t.Fatalf("%d and %d change events", len(events[0]), len(events[1]))
	}
	for i := range events[0] {
		a, b := events[0][i], events[1][i]
		if !slices.Equal(a.Inserted, b.Inserted) || !slices.Equal(a.Evicted, b.Evicted) {
			t.Fatalf("change event %d differs: %+v vs %+v", i, a, b)
		}
	}
}

func TestOutcomesIndependentOfIndexSeed(t *testing.T) {
	for _, host := range []bool{false, true} {
		for seed := int64(0); seed < 50; seed++ {
			runTwinOps(t, host, closureOps(seed))
		}
	}
}
