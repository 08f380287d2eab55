package cachesim

// This file keeps a frozen copy of the cache's former way layout — a
// 16-byte way holding the full line number and a 64-bit LRU stamp that
// never wraps — as an executable reference model. The equivalence tests in
// cache_equiv_test.go replay identical access streams through this shim and
// the production Cache and demand identical hits, victims and evicted line
// numbers, which is what licenses the packed 8-byte way to claim
// byte-identical pinned metrics.
//
// Do not "optimize" this file: its value is that it is structurally the old
// implementation.

type refWay struct {
	tag   uint64 // line number; garbage while stale
	stamp uint64 // LRU stamp; valid iff > epoch
}

type refCache struct {
	ways    []refWay
	shift   uint
	setMask uint64
	nw      int
	sets    int
	clock   uint64
	epoch   uint64
	stats   Stats
}

func newRefCache(cfg Config) *refCache {
	sets := cfg.SizeBytes / ((1 << cfg.LineShift) * cfg.Ways)
	return &refCache{
		ways:    make([]refWay, sets*cfg.Ways),
		shift:   cfg.LineShift,
		setMask: uint64(sets - 1),
		nw:      cfg.Ways,
		sets:    sets,
	}
}

func (c *refCache) line(addr uint64) (uint64, int) {
	ln := addr >> c.shift
	return ln, int(ln & c.setMask)
}

func (c *refCache) lookup(addr uint64) bool {
	ln, set := c.line(addr)
	c.clock++
	s := c.ways[set*c.nw : set*c.nw+c.nw]
	for i := range s {
		if s[i].stamp > c.epoch && s[i].tag == ln {
			s[i].stamp = c.clock
			c.stats.Hits++
			return true
		}
	}
	c.stats.Misses++
	return false
}

func (c *refCache) insert(addr uint64) (uint64, bool) {
	ln, set := c.line(addr)
	c.clock++
	s := c.ways[set*c.nw : set*c.nw+c.nw]
	victim := 0
	var oldest uint64 = ^uint64(0)
	for i := range s {
		if s[i].stamp > c.epoch && s[i].tag == ln {
			s[i].stamp = c.clock
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
	was := s[victim].stamp > c.epoch
	ev := s[victim].tag
	s[victim].tag = ln
	s[victim].stamp = c.clock
	return ev, was
}

func (c *refCache) invalidateLine(ln uint64) {
	set := int(ln & c.setMask)
	s := c.ways[set*c.nw : set*c.nw+c.nw]
	for i := range s {
		if s[i].stamp > c.epoch && s[i].tag == ln {
			s[i].stamp = 0
			return
		}
	}
}

func (c *refCache) contains(addr uint64) bool {
	ln, set := c.line(addr)
	for _, w := range c.ways[set*c.nw : set*c.nw+c.nw] {
		if w.stamp > c.epoch && w.tag == ln {
			return true
		}
	}
	return false
}

func (c *refCache) evictLRUHalf() {
	half := c.nw / 2
	for set := 0; set < c.sets; set++ {
		s := c.ways[set*c.nw : set*c.nw+c.nw]
		for k := 0; k < half; k++ {
			victim, oldest := -1, ^uint64(0)
			for i := range s {
				if s[i].stamp > c.epoch && s[i].stamp < oldest {
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

func (c *refCache) flush() { c.epoch = c.clock }
