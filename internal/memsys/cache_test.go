package memsys

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestCacheGeometry(t *testing.T) {
	c := NewCache(32<<10, 2, 64) // Table 1 L1: 256 sets
	if c.Sets() != 256 {
		t.Fatalf("sets = %d", c.Sets())
	}
	c2 := NewCache(256<<10, 16, 64) // Table 1 L2 bank: 256 sets
	if c2.Sets() != 256 {
		t.Fatalf("L2 sets = %d", c2.Sets())
	}
}

func TestCacheBadGeometryPanics(t *testing.T) {
	for _, f := range []func(){
		func() { NewCache(0, 2, 64) },
		func() { NewCache(32<<10, 2, 63) },   // non-power-of-two block
		func() { NewCache(3000, 2, 64) },     // non-power-of-two sets
		func() { NewCache(32<<10, 0, 64) },   // no ways
		func() { NewCache(32<<10, 2, -64) },  // negative block
		func() { NewCache(64, 1, 1) },        // block leaves no valid bit
		func() { NewCache(1<<17, 1<<16, 2) }, // more ways than a fill count holds
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestCacheHitAfterMiss(t *testing.T) {
	c := NewCache(1<<10, 2, 64)
	if c.Access(0x1000) {
		t.Fatal("cold access hit")
	}
	if !c.Access(0x1000) {
		t.Fatal("second access missed")
	}
	if !c.Access(0x1030) { // same 64B block
		t.Fatal("same-block access missed")
	}
	if c.Hits() != 2 || c.Misses() != 1 {
		t.Fatalf("hits=%d misses=%d", c.Hits(), c.Misses())
	}
}

func TestCacheLRUEviction(t *testing.T) {
	// Direct construction: 2-way, 1 set (128 B cache, 64 B blocks).
	c := NewCache(128, 2, 64)
	a, b, x := uint64(0), uint64(1<<20), uint64(2<<20)
	c.Access(a)
	c.Access(b)
	c.Access(a) // a is MRU, b is LRU
	c.Access(x) // evicts b
	if !c.Contains(a) || c.Contains(b) || !c.Contains(x) {
		t.Fatal("LRU eviction order wrong")
	}
	if c.Evictions() != 1 {
		t.Fatalf("evictions = %d", c.Evictions())
	}
}

func TestCacheContainsDoesNotTouchLRU(t *testing.T) {
	c := NewCache(128, 2, 64)
	a, b, x := uint64(0), uint64(1<<20), uint64(2<<20)
	c.Access(a)
	c.Access(b)   // order: b (MRU), a (LRU)
	c.Contains(a) // must NOT refresh a
	c.Access(x)   // evicts a
	if c.Contains(a) || !c.Contains(b) {
		t.Fatal("Contains must not update recency")
	}
}

func TestCacheWorkingSetFitsNoCapacityMisses(t *testing.T) {
	c := NewCache(32<<10, 2, 64)
	// 256 blocks with 64-block stride per set... simply: sequential 256
	// blocks (half the cache) twice: second pass must be all hits.
	for round := 0; round < 2; round++ {
		for i := 0; i < 256; i++ {
			c.Access(uint64(i * 64))
		}
	}
	if c.Misses() != 256 {
		t.Fatalf("misses = %d, want 256 cold only", c.Misses())
	}
}

// Property: a 1-way (direct-mapped) cache hits iff the previous access to
// the set had the same tag — reference-model equivalence on a tiny cache.
func TestCacheMatchesReferenceModel(t *testing.T) {
	if err := quick.Check(func(addrs []uint16) bool {
		c := NewCache(4*64, 1, 64) // 4 sets, direct mapped
		last := map[uint64]uint64{}
		for _, a16 := range addrs {
			addr := uint64(a16)
			tag := addr >> 6
			set := tag & 3
			want := false
			if prev, ok := last[set]; ok && prev == tag {
				want = true
			}
			if c.Access(addr) != want {
				return false
			}
			last[set] = tag
		}
		return true
	}, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestMissRate(t *testing.T) {
	c := NewCache(128, 2, 64)
	if c.MissRate() != 0 {
		t.Fatal("fresh cache miss rate")
	}
	c.Access(0)
	c.Access(0)
	if c.MissRate() != 0.5 {
		t.Fatalf("miss rate = %v", c.MissRate())
	}
}

// refCache is a slice-of-sets true-LRU cache kept as the reference the flat
// Cache must match access for access: each set is a MRU-first slice that
// grows to ways entries, and invalidation leaves a hole in place.
type refCache struct {
	sets                    [][]refLine
	ways                    int
	setShift                uint
	setMask                 uint64
	hits, misses, evictions uint64
}

type refLine struct {
	tag   uint64
	valid bool
}

func newRefCache(size, ways, block int) *refCache {
	numSets := size / (ways * block)
	return &refCache{
		sets:     make([][]refLine, numSets),
		ways:     ways,
		setShift: log2(uint64(block)),
		setMask:  uint64(numSets - 1),
	}
}

func (c *refCache) Access(addr uint64) bool {
	tag := addr >> c.setShift
	idx := tag & c.setMask
	set := c.sets[idx]
	for i, l := range set {
		if l.valid && l.tag == tag {
			copy(set[1:i+1], set[:i])
			set[0] = l
			c.hits++
			return true
		}
	}
	c.misses++
	if len(set) < c.ways {
		set = append(set, refLine{})
		c.sets[idx] = set
	} else {
		c.evictions++
	}
	copy(set[1:], set[:len(set)-1])
	set[0] = refLine{tag: tag, valid: true}
	return false
}

func (c *refCache) Invalidate(addr uint64) bool {
	tag := addr >> c.setShift
	set := c.sets[tag&c.setMask]
	for i, l := range set {
		if l.valid && l.tag == tag {
			set[i].valid = false
			return true
		}
	}
	return false
}

func (c *refCache) Contains(addr uint64) bool {
	tag := addr >> c.setShift
	for _, l := range c.sets[tag&c.setMask] {
		if l.valid && l.tag == tag {
			return true
		}
	}
	return false
}

// TestCacheMatchesSliceLRU runs Cache in lockstep with refCache over random
// Access/Invalidate/Contains mixes on the Table 1 L1 and L2 geometries.
// Addresses are drawn from a few more blocks per set than there are ways,
// so sets fill, evict, evict past invalidated holes and re-access
// invalidated tags; every return value and counter must agree.
func TestCacheMatchesSliceLRU(t *testing.T) {
	for _, g := range []struct {
		name              string
		size, ways, block int
	}{
		{"L1-32KB-2way", 32 << 10, 2, 64},
		{"L2-256KB-16way", 256 << 10, 16, 64},
	} {
		t.Run(g.name, func(t *testing.T) {
			c, ref := NewCache(g.size, g.ways, g.block), newRefCache(g.size, g.ways, g.block)
			sets := uint64(c.Sets())
			rng := rand.New(rand.NewSource(int64(g.ways)))
			var holes, holeEvictions, reaccessed int
			for step := 0; step < 400000; step++ {
				// Most traffic goes to 4 hot sets so they cycle through
				// fill, eviction and holes many times.
				set := uint64(rng.Intn(4))
				if rng.Intn(4) == 0 {
					set = uint64(rng.Int63n(int64(sets)))
				}
				tag := uint64(rng.Intn(g.ways+g.ways/2+2))*sets + set
				addr := tag<<6 | uint64(rng.Intn(64))
				switch op := rng.Intn(10); {
				case op < 7:
					wasHole := ref.holeAt(addr)
					lastIsHole := ref.lastIsHole(addr)
					got, want := c.Access(addr), ref.Access(addr)
					if got != want {
						t.Fatalf("step %d: Access(%#x) = %v, want %v", step, addr, got, want)
					}
					if wasHole {
						reaccessed++
					}
					if !want && lastIsHole {
						holeEvictions++
					}
				case op < 9:
					got, want := c.Invalidate(addr), ref.Invalidate(addr)
					if got != want {
						t.Fatalf("step %d: Invalidate(%#x) = %v, want %v", step, addr, got, want)
					}
					if want {
						holes++
					}
				default:
					if got, want := c.Contains(addr), ref.Contains(addr); got != want {
						t.Fatalf("step %d: Contains(%#x) = %v, want %v", step, addr, got, want)
					}
				}
			}
			if c.Hits() != ref.hits || c.Misses() != ref.misses || c.Evictions() != ref.evictions {
				t.Fatalf("counters hits/misses/evictions = %d/%d/%d, want %d/%d/%d",
					c.Hits(), c.Misses(), c.Evictions(), ref.hits, ref.misses, ref.evictions)
			}
			// The run must have exercised what it claims to.
			if ref.evictions == 0 || holes == 0 || holeEvictions == 0 || reaccessed == 0 {
				t.Fatalf("vacuous run: evictions=%d holes=%d hole evictions=%d re-accessed holes=%d",
					ref.evictions, holes, holeEvictions, reaccessed)
			}
		})
	}
}

// holeAt reports whether addr's tag sits in its set as an invalidated line.
func (c *refCache) holeAt(addr uint64) bool {
	tag := addr >> c.setShift
	for _, l := range c.sets[tag&c.setMask] {
		if !l.valid && l.tag == tag {
			return true
		}
	}
	return false
}

// lastIsHole reports whether addr's set is full with an invalidated LRU
// line, which the next miss there evicts.
func (c *refCache) lastIsHole(addr uint64) bool {
	set := c.sets[(addr>>c.setShift)&c.setMask]
	return len(set) == c.ways && !set[len(set)-1].valid
}

func TestCacheOpsDoNotAllocate(t *testing.T) {
	c := NewCache(256<<10, 16, 64)
	i := uint64(0)
	if n := testing.AllocsPerRun(1000, func() {
		i++
		c.Access(i * 64 % (1 << 22))
		c.Invalidate(i * 128 % (1 << 22))
	}); n != 0 {
		t.Fatalf("Access/Invalidate allocate %v times per call", n)
	}
}
