// Package cachesim models the data-side memory hierarchy of the simulated
// Haswell-like core: a set-associative, LRU, inclusive L1D/L2/L3 cache
// stack, a data TLB with a page-walk penalty, and the antagonist eviction
// callback the paper's `antagonist` microbenchmark uses ("evicts the less
// used half of each set of the L1 and L2 data caches").
//
// Timing and state are deliberately simple — single fixed latency per
// level, no MSHR limits, no bandwidth modeling — matching the granularity
// at which the paper reasons about fast-path costs (an L1 hit is ~4 cycles,
// an L3 hit ~34-36, a DRAM access ~200).
package cachesim

import (
	"fmt"
	"math"
	"math/bits"
	"sort"

	"mallacc/internal/telemetry"
)

// Config describes one cache level.
type Config struct {
	// Name appears in statistics output.
	Name string
	// SizeBytes is the total capacity.
	SizeBytes int
	// Ways is the associativity.
	Ways int
	// LineShift is log2 of the line (or page, for TLBs) size.
	LineShift uint
	// Latency is the hit latency in cycles.
	Latency uint64
}

// Stats counts accesses per cache.
type Stats struct {
	Hits   uint64
	Misses uint64
}

// Accesses returns total accesses.
func (s Stats) Accesses() uint64 { return s.Hits + s.Misses }

// MissRate returns the miss ratio in [0, 1].
func (s Stats) MissRate() float64 {
	return telemetry.Rate(s.Misses, s.Accesses())
}

// way is one cache line's metadata, packed into 8 bytes. The tag is the
// line number with the set-index bits shifted out (ln >> setBits): the set
// a way sits in already encodes them, so the line number is recovered as
// tag<<setBits | set. A line is valid iff stamp > the cache's epoch
// watermark: the LRU clock pre-increments before every stamp write, so
// live lines always carry a stamp above the epoch they were written in,
// and whole-cache invalidation (Reset, Flush) is O(1) — raise the epoch to
// the current clock and every line goes stale at once. Single-line
// invalidation zeroes the stamp (0 is never above any epoch).
//
// Eight bytes per way keep a hierarchy's host memory small — the 8 MiB L3
// is 1 MiB of way metadata, and concurrent simulations each hold one — and
// a probe of a 16-way set touches two host cache lines. The 32-bit stamp
// would wrap after ~4e9 accesses to one cache; the clock renormalises the
// live stamps in order first (see tick), so LRU decisions never see a
// wrap.
type way struct {
	tag   uint32 // line number >> setBits; garbage while stale
	stamp uint32 // LRU stamp; valid iff > the cache epoch
}

// Cache is one set-associative level with true-LRU replacement implemented
// via per-line access stamps. The fields a probe reads — the way array,
// the precomputed geometry, the clock and the epoch — lead the struct so
// they share cache lines; cfg holds the cold configuration copy.
type Cache struct {
	ways    []way  // sets*cfg.Ways
	shift   uint   // cfg.LineShift
	setBits uint   // log2(sets)
	setMask uint64 // sets - 1
	nw      int    // cfg.Ways
	clock   uint32
	// epoch is the invalidation watermark: lines stamped at or below it are
	// stale. The clock never rewinds across Reset, so stamp order — the
	// only thing LRU decisions read — is isomorphic to a fresh cache's;
	// renormalisation rewrites clock, epoch and stamps together.
	epoch uint32
	Stats Stats
	cfg   Config
	sets  int
}

// New builds a cache from cfg, validating the geometry.
func New(cfg Config) *Cache {
	line := 1 << cfg.LineShift
	if cfg.SizeBytes%(line*cfg.Ways) != 0 {
		panic(fmt.Sprintf("cachesim: %s size %d not divisible by ways*line", cfg.Name, cfg.SizeBytes))
	}
	sets := cfg.SizeBytes / (line * cfg.Ways)
	if sets&(sets-1) != 0 {
		panic(fmt.Sprintf("cachesim: %s set count %d not a power of two", cfg.Name, sets))
	}
	return &Cache{
		ways:    make([]way, sets*cfg.Ways),
		shift:   cfg.LineShift,
		setBits: uint(bits.TrailingZeros(uint(sets))),
		setMask: uint64(sets - 1),
		nw:      cfg.Ways,
		cfg:     cfg,
		sets:    sets,
	}
}

// Sets returns the number of sets.
func (c *Cache) Sets() int { return c.sets }

// Ways returns the associativity.
func (c *Cache) Ways() int { return c.cfg.Ways }

// Latency returns the hit latency.
func (c *Cache) Latency() uint64 { return c.cfg.Latency }

// split returns the packed tag and set index of line number ln. A line
// whose tag does not fit the way's 32 bits panics: truncating it would
// silently alias distinct lines.
func (c *Cache) split(ln uint64) (tag uint32, set int) {
	t := ln >> c.setBits
	if t > math.MaxUint32 {
		c.tagOverflow(ln)
	}
	return uint32(t), int(ln & c.setMask)
}

// tagOverflow is split's panic, kept out of line so split inlines into the
// probe loops.
//
//go:noinline
func (c *Cache) tagOverflow(ln uint64) {
	panic(fmt.Sprintf("cachesim: %s line %#x beyond the 32-bit tag range", c.cfg.Name, ln))
}

// tick advances the LRU clock and returns the new stamp, renormalising
// first when the clock is about to wrap.
func (c *Cache) tick() uint32 {
	if c.clock == math.MaxUint32 {
		c.renormalize()
	}
	c.clock++
	return c.clock
}

// renormalize rewrites every live stamp to its rank (1..n) in global stamp
// order and every stale one to 0, then restarts the epoch at 0 and the
// clock at n. Stamps are unique and LRU decisions only compare them (with
// each other and with the epoch), so the cache behaves exactly as before.
func (c *Cache) renormalize() {
	live := make([]int, 0, len(c.ways))
	for i, w := range c.ways {
		if w.stamp > c.epoch {
			live = append(live, i)
		} else {
			c.ways[i].stamp = 0
		}
	}
	sort.Slice(live, func(a, b int) bool { return c.ways[live[a]].stamp < c.ways[live[b]].stamp })
	for rank, i := range live {
		c.ways[i].stamp = uint32(rank + 1)
	}
	c.epoch = 0
	c.clock = uint32(len(live))
}

// Lookup probes for addr without modifying contents, updating LRU and stats
// on a hit.
func (c *Cache) Lookup(addr uint64) bool {
	tag, set := c.split(addr >> c.shift)
	base := set * c.nw
	now := c.tick()
	s := c.ways[base : base+c.nw]
	for i := range s {
		if s[i].stamp > c.epoch && s[i].tag == tag {
			s[i].stamp = now
			c.Stats.Hits++
			return true
		}
	}
	c.Stats.Misses++
	return false
}

// Insert fills addr's line, evicting LRU if needed. It returns the evicted
// line number and whether an eviction occurred (for inclusive back-
// invalidation).
//
// Victim selection replicates the original parallel-slice implementation
// exactly (byte-identical simulation output depends on it): an invalid way
// always overwrites the running victim — so the LAST invalid way in scan
// order wins — and otherwise the FIRST way holding the minimum stamp wins
// (valid stamps are unique, so strict < picks the first minimum).
func (c *Cache) Insert(addr uint64) (evicted uint64, wasEvicted bool) {
	tag, set := c.split(addr >> c.shift)
	base := set * c.nw
	now := c.tick()
	s := c.ways[base : base+c.nw]
	victim := 0
	var oldest uint32 = math.MaxUint32
	for i := range s {
		if s[i].stamp > c.epoch && s[i].tag == tag {
			s[i].stamp = now // already present
			return 0, false
		}
		if s[i].stamp <= c.epoch {
			victim = i
			oldest = 0
		} else if s[i].stamp < oldest {
			victim = i
			oldest = s[i].stamp
		}
	}
	if s[victim].stamp > c.epoch {
		evicted, wasEvicted = uint64(s[victim].tag)<<c.setBits|uint64(set), true
	}
	s[victim].tag = tag
	s[victim].stamp = now
	return evicted, wasEvicted
}

// InvalidateLine removes a line (by line number) if present.
func (c *Cache) InvalidateLine(ln uint64) {
	tag, set := c.split(ln)
	base := set * c.nw
	s := c.ways[base : base+c.nw]
	for i := range s {
		if s[i].stamp > c.epoch && s[i].tag == tag {
			s[i].stamp = 0
			return
		}
	}
}

// Contains probes without any side effects (no LRU or stats update).
func (c *Cache) Contains(addr uint64) bool {
	tag, set := c.split(addr >> c.shift)
	base := set * c.nw
	for _, w := range c.ways[base : base+c.nw] {
		if w.stamp > c.epoch && w.tag == tag {
			return true
		}
	}
	return false
}

// EvictLRUHalf invalidates the least-recently-used half of every set. This
// is the simulator callback the antagonist microbenchmark invokes after
// each allocation (Sec. 5).
func (c *Cache) EvictLRUHalf() {
	half := c.cfg.Ways / 2
	for set := 0; set < c.sets; set++ {
		base := set * c.cfg.Ways
		s := c.ways[base : base+c.cfg.Ways]
		for k := 0; k < half; k++ {
			victim := -1
			var oldest uint32
			for i := range s {
				if s[i].stamp > c.epoch && (victim < 0 || s[i].stamp < oldest) {
					victim, oldest = i, s[i].stamp
				}
			}
			if victim < 0 {
				break
			}
			s[victim].stamp = 0
		}
	}
}

// Reset returns the cache to a just-built state: every line invalid and
// statistics cleared, in O(1) — the epoch watermark rises to the current
// clock, invalidating all lines at once. The clock itself keeps running:
// LRU reads only stamp order, which is isomorphic to a fresh cache's, so a
// reset cache behaves identically to a new one.
func (c *Cache) Reset() {
	c.epoch = c.clock
	c.Stats = Stats{}
}

// Flush invalidates the whole cache (same O(1) epoch bump as Reset, but
// statistics survive).
func (c *Cache) Flush() {
	c.epoch = c.clock
}

// Occupancy returns the fraction of valid lines, for tests and reports.
func (c *Cache) Occupancy() float64 {
	n := 0
	for _, w := range c.ways {
		if w.stamp > c.epoch {
			n++
		}
	}
	return float64(n) / float64(len(c.ways))
}
