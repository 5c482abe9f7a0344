package sim

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// refCache is an obviously-correct LRU model: a slice of lines per set,
// most recent first.
type refCache struct {
	lineShift uint
	sets      int
	assoc     int
	lines     [][]uint64
}

func newRefCache(cc CacheConfig) *refCache {
	shift := uint(0)
	for 1<<shift < cc.LineBytes {
		shift++
	}
	return &refCache{
		lineShift: shift,
		sets:      cc.Sets(),
		assoc:     cc.Assoc,
		lines:     make([][]uint64, cc.Sets()),
	}
}

func (r *refCache) access(addr uint64) bool {
	line := addr >> r.lineShift
	set := int(line % uint64(r.sets))
	ways := r.lines[set]
	for i, l := range ways {
		if l == line {
			// Move to front.
			copy(ways[1:i+1], ways[:i])
			ways[0] = line
			return true
		}
	}
	ways = append([]uint64{line}, ways...)
	if len(ways) > r.assoc {
		ways = ways[:r.assoc]
	}
	r.lines[set] = ways
	return false
}

// newCkCache returns a cold kernel cache for cc.
func newCkCache(cc CacheConfig) *ckCache {
	c := &ckCache{}
	c.init(cc)
	return c
}

// access is the compiled kernel's probe, as runCompiled inlines it: compare
// way 0, then fall back to accessSlow.
func (c *ckCache) access(addr uint64) bool {
	line := addr >> c.lineShift
	key := line + 1
	wb := int(line&c.setMask) * c.assoc
	if c.keys[wb] == key {
		return true
	}
	return c.accessSlow(c.keys[wb:wb+c.assoc], key)
}

// TestCacheMatchesReferenceModel drives the kernel's cache and the reference
// model with identical random access streams (mixing sequential runs and
// random jumps) and requires hit/miss agreement on every access.
func TestCacheMatchesReferenceModel(t *testing.T) {
	t.Parallel()
	cfgs := []CacheConfig{
		{SizeBytes: 1 << 10, Assoc: 2, LineBytes: 16, LatencyCycles: 1},
		{SizeBytes: 4 << 10, Assoc: 4, LineBytes: 32, LatencyCycles: 1},
		{SizeBytes: 64 << 10, Assoc: 4, LineBytes: 32, LatencyCycles: 1},
		{SizeBytes: 2 << 10, Assoc: 1, LineBytes: 32, LatencyCycles: 1}, // direct-mapped
	}
	for _, cc := range cfgs {
		cc := cc
		err := quick.Check(func(seed int64) bool {
			rng := rand.New(rand.NewSource(seed))
			prod := newCkCache(cc)
			ref := newRefCache(cc)
			addr := uint64(rng.Intn(1 << 20))
			for i := 0; i < 3000; i++ {
				switch rng.Intn(3) {
				case 0: // sequential run
					addr += 4
				case 1: // stride
					addr += uint64(cc.LineBytes)
				default: // random jump within a window
					addr = uint64(rng.Intn(8 * cc.SizeBytes))
				}
				if prod.access(addr) != ref.access(addr) {
					return false
				}
			}
			return true
		}, &quick.Config{MaxCount: 20})
		if err != nil {
			t.Errorf("config %+v: %v", cc, err)
		}
	}
}

// TestCacheResetForgets checks that re-initializing a warm cache, as every
// run does, leaves no resident lines.
func TestCacheResetForgets(t *testing.T) {
	t.Parallel()
	cc := CacheConfig{SizeBytes: 1 << 10, Assoc: 2, LineBytes: 16, LatencyCycles: 1}
	c := newCkCache(cc)
	for a := uint64(0); a < 1024; a += 4 {
		c.access(a)
	}
	c.init(cc)
	for a := uint64(0); a < 1024; a += 16 {
		if c.access(a) {
			t.Fatalf("address %#x hit after reset", a)
		}
	}
}
