package kvcache

// Prefix closure: along any chain that starts at the root, the GPU tier's
// cached blocks are a prefix of the chain. PeekH binary-searches for the
// end of that prefix, so a wrong search, or a block evicted while its
// children stay cached, shows up here as PeekH disagreeing with a linear
// walk. The schedulers' sweep oracle cannot catch either: both of its
// sides call the same PeekH.

import (
	"math/rand"
	"slices"
	"testing"
)

const closureBlockTokens = 4

// closureChains returns root-anchored chains that share prefixes: three
// users with 4–6-block profiles, each followed by three branches of 2, 4
// or 6 blocks.
func closureChains() [][]uint64 {
	var chains [][]uint64
	for user := uint64(1); user <= 3; user++ {
		for branch := uint64(1); branch <= 3; branch++ {
			var toks []uint64
			for i := uint64(0); i < (3+user)*closureBlockTokens; i++ {
				toks = append(toks, user<<32|i)
			}
			for i := uint64(0); i < 2*branch*closureBlockTokens; i++ {
				toks = append(toks, user<<32|branch<<16|i)
			}
			chains = append(chains, BlockHashes(toks, closureBlockTokens))
		}
	}
	return chains
}

// linearPeek is the reference PeekH: walk the chain to its first uncached
// block.
func linearPeek(m *Manager, chain []uint64) int {
	hit := 0
	for _, h := range chain {
		if !m.HasBlock(h) {
			break
		}
		hit += m.blockTokens
	}
	return hit
}

// closureOps returns a seeded random op sequence for runClosureOps.
func closureOps(seed int64) []byte {
	ops := make([]byte, 600)
	rand.New(rand.NewSource(seed)).Read(ops)
	return ops
}

// runClosureOps applies the cache operations encoded in ops, two bytes
// each (operation, argument), to a 12-block GPU tier with an 8-block host
// tier, and after every operation checks each chain: PeekH equals the
// linear walk, and no cached block lacks its cached predecessor. The
// clock moves backwards as well as forwards, so closure cannot rest on
// parents being touched no earlier than their children.
func runClosureOps(t *testing.T, ops []byte) {
	m, err := New(Config{
		BlockTokens:       closureBlockTokens,
		BytesPerToken:     1,
		CapacityBytes:     12 * closureBlockTokens,
		HostCapacityBytes: 8 * closureBlockTokens,
	})
	if err != nil {
		t.Fatal(err)
	}
	chains := closureChains()
	var releases []func()
	now := 0.0
	for i := 0; i+1 < len(ops); i += 2 {
		op, arg := ops[i]%9, int(ops[i+1])
		chain := chains[arg%len(chains)]
		now++
		switch op {
		case 0, 1: // insert a prefix of a chain; a full pool rejects its suffix
			m.InsertH(chain[:arg/len(chains)%(len(chain)+1)], now)
		case 2: // reserve pool space, evicting, until released
			_, release := m.Reserve(int64(arg%16) * closureBlockTokens)
			releases = append(releases, release)
		case 3: // pin a chain's cached prefix until released
			_, release := m.PinH(chain, now)
			releases = append(releases, release)
		case 4:
			if len(releases) > 0 {
				k := arg % len(releases)
				releases[k]()
				releases = slices.Delete(releases, k, k+1)
			}
		case 5:
			m.EvictAll()
		case 6:
			m.LoseAll()
		case 7: // refresh a chain's cached prefix in the LRU
			m.LookupH(chain, now)
		case 8: // jump the clock, possibly backwards
			now = float64(arg % 64)
		}
		for c, ch := range chains {
			if got, want := m.PeekH(ch), linearPeek(m, ch); got != want {
				t.Fatalf("op %d (%d, %d): PeekH(chain %d) = %d, linear walk = %d", i/2, op, arg, c, got, want)
			}
			for k := 1; k < len(ch); k++ {
				if m.HasBlock(ch[k]) && !m.HasBlock(ch[k-1]) {
					t.Fatalf("op %d (%d, %d): block %d of chain %d is cached without block %d", i/2, op, arg, k, c, k-1)
				}
			}
		}
	}
}

func TestPrefixClosure(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		runClosureOps(t, closureOps(seed))
	}
}

func FuzzPrefixClosure(f *testing.F) {
	for seed := int64(0); seed < 8; seed++ {
		f.Add(closureOps(seed))
	}
	f.Fuzz(runClosureOps)
}
