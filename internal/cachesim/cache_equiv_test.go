package cachesim

import (
	"math"
	"testing"

	"mallacc/internal/stats"
)

// TestPackedWayMatchesReference replays random access streams through the
// packed cache and the frozen 16-byte-way reference and demands identical
// hits, victims, evicted line numbers and residency, including across
// EvictLRUHalf, Flush and single-line invalidation. The second pass jumps
// the packed cache's clock to just below the 32-bit wrap every few
// thousand operations, so every renormalisation runs with live lines of
// mixed age — the reference's 64-bit clock never wraps.
func TestPackedWayMatchesReference(t *testing.T) {
	geoms := []Config{
		{Name: "tiny", SizeBytes: 512, Ways: 2, LineShift: 6},
		{Name: "l1", SizeBytes: 32 << 10, Ways: 8, LineShift: 6},
		{Name: "assoc", SizeBytes: 16 * 64, Ways: 16, LineShift: 6},
		{Name: "tlb", SizeBytes: 64 << 12, Ways: 4, LineShift: 12},
	}
	for _, forceWrap := range []bool{false, true} {
		for gi, cfg := range geoms {
			c, ref := New(cfg), newRefCache(cfg)
			rng := stats.NewRNG(uint64(gi)*31 + 7)
			// A line pool ~3x the cache's capacity keeps both hits and
			// evictions frequent; the high base exercises wide tags.
			lines := uint64(3 * len(c.ways))
			base := uint64(1) << 36
			wraps := 0
			for op := 0; op < 60000; op++ {
				if forceWrap && op%4000 == 0 {
					if c.clock < math.MaxUint32-1000 {
						wraps++
					}
					c.clock = math.MaxUint32 - uint32(rng.Uint64n(600))
				}
				addr := base + rng.Uint64n(lines)<<cfg.LineShift + rng.Uint64n(1<<cfg.LineShift)
				switch k := rng.Uint64n(100); {
				case k < 45:
					if got, want := c.Lookup(addr), ref.lookup(addr); got != want {
						t.Fatalf("%s op %d: Lookup(%#x) = %v, reference %v", cfg.Name, op, addr, got, want)
					}
				case k < 90:
					ev, was := c.Insert(addr)
					rev, rwas := ref.insert(addr)
					if was != rwas || (was && ev != rev) {
						t.Fatalf("%s op %d: Insert(%#x) = (%#x, %v), reference (%#x, %v)", cfg.Name, op, addr, ev, was, rev, rwas)
					}
				case k < 95:
					ln := addr >> cfg.LineShift
					c.InvalidateLine(ln)
					ref.invalidateLine(ln)
				case k < 98:
					if got, want := c.Contains(addr), ref.contains(addr); got != want {
						t.Fatalf("%s op %d: Contains(%#x) = %v, reference %v", cfg.Name, op, addr, got, want)
					}
				case k < 99:
					c.EvictLRUHalf()
					ref.evictLRUHalf()
				default:
					c.Flush()
					ref.flush()
				}
			}
			if c.Stats != ref.stats {
				t.Fatalf("%s: stats %+v, reference %+v", cfg.Name, c.Stats, ref.stats)
			}
			for ln := uint64(0); ln < lines; ln++ {
				addr := base + ln<<cfg.LineShift
				if c.Contains(addr) != ref.contains(addr) {
					t.Fatalf("%s: final residency of line %#x differs", cfg.Name, addr>>cfg.LineShift)
				}
			}
			if forceWrap && wraps < 10 {
				t.Fatalf("%s: only %d forced wraps", cfg.Name, wraps)
			}
		}
	}
}

// TestOversizedTagPanics: a line whose tag exceeds the way's 32 bits must
// panic rather than alias a line that differs only in the dropped bits —
// 1<<44 truncates to line 0's tag in set 0, which each cache holds.
func TestOversizedTagPanics(t *testing.T) {
	cfg := DefaultHierarchyConfig().L1D // 64 sets: tag = addr >> 12
	fits := uint64(math.MaxUint32) << 12
	over := uint64(1) << 44
	for name, op := range map[string]func(c *Cache, addr uint64){
		"Lookup":         func(c *Cache, addr uint64) { c.Lookup(addr) },
		"Insert":         func(c *Cache, addr uint64) { c.Insert(addr) },
		"InvalidateLine": func(c *Cache, addr uint64) { c.InvalidateLine(addr >> cfg.LineShift) },
		"Contains":       func(c *Cache, addr uint64) { c.Contains(addr) },
	} {
		c := New(cfg)
		c.Insert(0)
		op(c, fits) // the widest tag that fits is fine
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s(%#x) did not panic", name, over)
				}
			}()
			op(c, over)
		}()
	}
}
