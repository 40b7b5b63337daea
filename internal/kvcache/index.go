package kvcache

import (
	"hash/maphash"
	"math/bits"
)

// blockIndex maps block hashes to slab slots: an open-addressing table
// with linear probing, kept at most half full and doubled when an insert
// would pass that, with Knuth's backward-shift deletion (Algorithm R), so
// it needs no tombstones and every probe run ends at an empty cell.
//
// A key's probe run starts at its block hash mixed with two seed words
// drawn from hash/maphash per Manager, as Go's map seeds its own hash.
// Block hashes are functions of prompt content, so with a fixed start a
// client could choose prompts whose blocks share one long run. Only
// CheckInvariants ranges over the cells, so no outcome depends on the
// seed.
//
// Cell i holds the key hashes[i] and the value refs[i], the slab slot
// plus one, so a zero ref marks an empty cell and any hash, 0 included,
// can be a key. Two arrays instead of one of structs save the struct's
// padding: 12 bytes a cell, not 16.
//
// Like lruHeap, the methods that place keys take the slab the slots
// index and keep each block's cell, so a block is deleted by its cell
// without a probe.
type blockIndex struct {
	hashes       []uint64
	refs         []int32 // len(refs) == len(hashes), a power of two
	n            int     // occupied cells
	seed0, seed1 uint64
}

// minIndexCells is the initial table size.
const minIndexCells = 16

// cellsFor returns the fewest cells, a power of two and at least
// minIndexCells, that hold keys keys at most half full.
func cellsFor(keys int) int {
	cells := minIndexCells
	for cells < 2*keys {
		cells *= 2
	}
	return cells
}

// newBlockIndex returns an empty table of cells cells (a power of two)
// whose probe starts are mixed with seed0 and seed1.
func newBlockIndex(cells int, seed0, seed1 uint64) blockIndex {
	return blockIndex{hashes: make([]uint64, cells), refs: make([]int32, cells), seed0: seed0, seed1: seed1}
}

// newSeededIndex returns an empty table whose seed words come from a
// fresh hash/maphash seed.
func newSeededIndex() blockIndex {
	s := maphash.MakeSeed()
	return newBlockIndex(minIndexCells, maphash.String(s, "0"), maphash.String(s, "1"))
}

// home is the cell where hash's probe run starts: the 128-bit product of
// the hash xored with each seed word, folded (wyhash's mix).
func (t *blockIndex) home(hash uint64) int {
	hi, lo := bits.Mul64(hash^t.seed0, hash^t.seed1)
	return int((hi ^ lo) & uint64(len(t.refs)-1))
}

// find returns the cell holding hash, or else the empty cell that ends
// its probe run.
func (t *blockIndex) find(hash uint64) (int, bool) {
	mask := len(t.refs) - 1
	for i := t.home(hash); ; i = (i + 1) & mask {
		if t.refs[i] == 0 {
			return i, false
		}
		if t.hashes[i] == hash {
			return i, true
		}
	}
}

// get returns hash's slab slot.
func (t *blockIndex) get(hash uint64) (int32, bool) {
	i, ok := t.find(hash)
	return t.refs[i] - 1, ok
}

// put maps hash to slot, replacing any earlier slot, and records the
// cell in s[slot]. A table that would pass half full doubles first.
func (t *blockIndex) put(s []block, hash uint64, slot int32) {
	i, ok := t.find(hash)
	if !ok {
		if 2*(t.n+1) > len(t.refs) {
			t.resize(s, 2*len(t.refs))
			i, _ = t.find(hash)
		}
		t.n++
	}
	t.hashes[i], t.refs[i] = hash, slot+1
	s[slot].cell = int32(i)
}

// resize moves every key into a new table of cells cells, a power of two
// at least twice the key count, and rewrites each key's cell in s.
func (t *blockIndex) resize(s []block, cells int) {
	hashes, refs := t.hashes, t.refs
	t.hashes, t.refs = make([]uint64, cells), make([]int32, cells)
	for k, ref := range refs {
		if ref != 0 {
			i, _ := t.find(hashes[k])
			t.hashes[i], t.refs[i] = hashes[k], ref
			s[ref-1].cell = int32(i)
		}
	}
}

// del empties occupied cell i. The cells after the hole, up to the next
// empty one, shift back into it unless their probe run starts after the
// hole, so every remaining key stays reachable from its home; each key
// that moves has its cell rewritten in s.
func (t *blockIndex) del(s []block, i int) {
	t.n--
	mask := len(t.refs) - 1
	for j := i; ; {
		j = (j + 1) & mask
		if t.refs[j] == 0 {
			t.refs[i] = 0
			return
		}
		// Cell j fills the hole unless its home lies cyclically in (i, j].
		if (j-t.home(t.hashes[j]))&mask >= (j-i)&mask {
			t.hashes[i], t.refs[i] = t.hashes[j], t.refs[j]
			s[t.refs[i]-1].cell = int32(i)
			i = j
		}
	}
}

// prefix returns how many leading blocks of c are keys, n, and the slot
// of the last of them, c.At(n-1) (-1 when n is 0). The keys must be
// prefix-closed along c — if block i is a key, so is every block j < i —
// which lets it binary-search in O(log c.Len()) probes instead of walking
// the chain. One probe of c.Shared's last block tells which part the
// prefix ends in, so the search runs over one flat part.
func (t *blockIndex) prefix(c *Chain) (n int, last int32) {
	if k := len(c.Shared); k > 0 {
		if slot, ok := t.get(c.Shared[k-1]); ok {
			n, last = t.search(c.Own, slot)
			return k + n, last
		}
		return t.search(c.Shared[:k-1], -1)
	}
	return t.search(c.Own, -1)
}

// search binary-searches part, a run of a chain whose blocks before it
// are keys, the last of them at slot last (-1 when there are none). It
// returns how many leading hashes of part are keys and the slot of the
// last key, last itself when none is. lo only moves on a hit, to just
// past it, so the last hit probed is part[n-1].
func (t *blockIndex) search(part []uint64, last int32) (int, int32) {
	lo, hi := 0, len(part)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if slot, ok := t.get(part[mid]); ok {
			lo, last = mid+1, slot
		} else {
			hi = mid
		}
	}
	return lo, last
}
