// Package memsys implements the memory-system substrate of the full-system
// configuration in Table 1: private L1 caches, a shared distributed L2 (one
// bank per node) with region-aware home mapping (the cooperative-cache
// optimization that forms RNoCs), and memory controllers at the four mesh
// corners. Cores drive it with synthetic address streams; every L1 miss
// turns into request/response packets on the NoC, which is how the
// PARSEC-proxy traffic of the application experiments is produced.
package memsys

import (
	"fmt"
	"math"
)

// Cache is a set-associative cache with true-LRU replacement. It tracks
// block presence only (no data), which is all traffic generation needs.
//
// Each set is a fixed ways-wide stripe of lines, most recently used first.
// A line holds tag<<1|1 while valid; invalidation clears the low bit and
// leaves the line in place as a hole that ages like any other line.
// fill[set] counts the stripe's occupied lines: a set fills before it
// evicts, and a miss in a full set evicts its last line, hole or not.
type Cache struct {
	lines     []uint64
	fill      []uint16
	ways      int
	setShift  uint // log2(block size)
	setMask   uint64
	hits      uint64
	misses    uint64
	evictions uint64
}

// NewCache builds a cache of size bytes, the given associativity and block
// size (both powers of two; size must divide evenly into sets). The block
// must be at least 2 bytes so that a tag leaves the line's low bit free.
func NewCache(size, ways, block int) *Cache {
	if size <= 0 || ways <= 0 || block <= 0 {
		panic("memsys: non-positive cache geometry")
	}
	if block < 2 || block&(block-1) != 0 {
		panic("memsys: block size must be a power of two of at least 2")
	}
	if ways > math.MaxUint16 {
		panic(fmt.Sprintf("memsys: %d ways exceed %d", ways, math.MaxUint16))
	}
	numSets := size / (ways * block)
	if numSets <= 0 || numSets&(numSets-1) != 0 {
		panic(fmt.Sprintf("memsys: %d sets (size %d / ways %d / block %d) not a power of two",
			numSets, size, ways, block))
	}
	return &Cache{
		lines:    make([]uint64, numSets*ways),
		fill:     make([]uint16, numSets),
		ways:     ways,
		setShift: log2(uint64(block)),
		setMask:  uint64(numSets - 1),
	}
}

func log2(v uint64) uint {
	var n uint
	for v > 1 {
		v >>= 1
		n++
	}
	return n
}

// Sets reports the number of sets.
func (c *Cache) Sets() int { return len(c.fill) }

// set returns addr's occupied lines and the valid line addr's block would
// hold.
func (c *Cache) set(addr uint64) (set []uint64, line uint64, idx uint64) {
	tag := addr >> c.setShift
	idx = tag & c.setMask
	base := int(idx) * c.ways
	return c.lines[base : base+int(c.fill[idx])], tag<<1 | 1, idx
}

// Access looks up addr, allocating the block on a miss (write-allocate for
// both reads and writes) and updating LRU order. It reports whether the
// access hit.
func (c *Cache) Access(addr uint64) bool {
	set, line, idx := c.set(addr)
	for i, l := range set {
		if l == line {
			// Move to MRU position (front).
			copy(set[1:i+1], set[:i])
			set[0] = line
			c.hits++
			return true
		}
	}
	c.misses++
	if len(set) < c.ways {
		c.fill[idx]++
		set = set[:len(set)+1]
	} else {
		c.evictions++
	}
	copy(set[1:], set[:len(set)-1])
	set[0] = line
	return false
}

// Invalidate drops addr's block if present (coherence invalidation),
// reporting whether it was present.
func (c *Cache) Invalidate(addr uint64) bool {
	set, line, _ := c.set(addr)
	for i, l := range set {
		if l == line {
			set[i] = line &^ 1
			return true
		}
	}
	return false
}

// Contains reports whether addr's block is present, without touching LRU
// state.
func (c *Cache) Contains(addr uint64) bool {
	set, line, _ := c.set(addr)
	for _, l := range set {
		if l == line {
			return true
		}
	}
	return false
}

// Hits reports total hit count.
func (c *Cache) Hits() uint64 { return c.hits }

// Misses reports total miss count.
func (c *Cache) Misses() uint64 { return c.misses }

// Evictions reports total LRU evictions.
func (c *Cache) Evictions() uint64 { return c.evictions }

// MissRate reports misses / accesses (0 before any access).
func (c *Cache) MissRate() float64 {
	total := c.hits + c.misses
	if total == 0 {
		return 0
	}
	return float64(c.misses) / float64(total)
}
