package harness

import (
	"mallacc/internal/cachesim"
	"mallacc/internal/core"
	"mallacc/internal/cpu"
	"mallacc/internal/hoard"
	"mallacc/internal/jemalloc"
	"mallacc/internal/mem"
	"mallacc/internal/stats"
	"mallacc/internal/tcmalloc"
	"mallacc/internal/workload"
)

// The cross-allocator experiment backs the paper's generality claim
// (Sec. 1, Sec. 4): the same malloc cache and instructions accelerate all
// three allocators the paper names — TCMalloc, a jemalloc-style design
// (array tcache stacks over bitmap slabs) and a Hoard-style design
// (per-thread heaps of superblocks). Hoard also exposes a boundary of the
// approach: its locked fast path hides pure latency gains, leaving cache
// isolation as the benefit.

// jeDriver adapts the jemalloc heap to the workload.App interface.
type jeDriver struct {
	heap *jemalloc.Heap
	tc   *jemalloc.ThreadCache
	core *cpu.Core
	rng  *stats.RNG

	mallocCycles, freeCycles uint64
	mallocCalls              uint64
	footBase, footLines      uint64
	touchBuf                 []uint64
}

func (d *jeDriver) Malloc(size uint64) uint64 {
	d.heap.Em.Reset()
	addr := d.heap.Malloc(d.tc, size)
	d.mallocCycles += d.core.RunTrace(d.heap.Em.Trace())
	d.mallocCalls++
	return addr
}

func (d *jeDriver) Free(addr, hint uint64) {
	d.heap.Em.Reset()
	d.heap.Free(d.tc, addr, hint)
	d.freeCycles += d.core.RunTrace(d.heap.Em.Trace())
}

func (d *jeDriver) Work(cycles uint64, lines int) {
	if d.footLines > 0 && lines > 0 {
		if cap(d.touchBuf) < lines {
			d.touchBuf = make([]uint64, lines)
		}
		buf := d.touchBuf[:lines]
		for i := range buf {
			buf[i] = d.footBase + d.rng.Uint64n(d.footLines)*mem.CacheLineSize
		}
		d.core.AdvanceApp(cycles, buf)
		return
	}
	d.core.AdvanceApp(cycles, nil)
}

func (d *jeDriver) Antagonize() { d.core.Memory().Antagonize() }

// hoardDriver adapts the Hoard-style heap to workload.App.
type hoardDriver struct {
	heap *hoard.Heap
	th   *hoard.ThreadHeap
	core *cpu.Core
	rng  *stats.RNG

	mallocCycles, freeCycles uint64
	mallocCalls              uint64
	footBase, footLines      uint64
	touchBuf                 []uint64
}

func (d *hoardDriver) Malloc(size uint64) uint64 {
	d.heap.Em.Reset()
	addr := d.heap.Malloc(d.th, size)
	d.mallocCycles += d.core.RunTrace(d.heap.Em.Trace())
	d.mallocCalls++
	return addr
}

func (d *hoardDriver) Free(addr, hint uint64) {
	d.heap.Em.Reset()
	d.heap.Free(d.th, addr, hint)
	d.freeCycles += d.core.RunTrace(d.heap.Em.Trace())
}

func (d *hoardDriver) Work(cycles uint64, lines int) {
	if d.footLines > 0 && lines > 0 {
		if cap(d.touchBuf) < lines {
			d.touchBuf = make([]uint64, lines)
		}
		buf := d.touchBuf[:lines]
		for i := range buf {
			buf[i] = d.footBase + d.rng.Uint64n(d.footLines)*mem.CacheLineSize
		}
		d.core.AdvanceApp(cycles, buf)
		return
	}
	d.core.AdvanceApp(cycles, nil)
}

func (d *hoardDriver) Antagonize() { d.core.Memory().Antagonize() }

// runHoard executes a workload on the Hoard-style substrate.
func runHoard(w workload.Workload, mode tcmalloc.Mode, calls int, seed uint64) (mallocCycles, allocCycles uint64) {
	cfg := hoard.DefaultConfig()
	cfg.Mode = mode
	cfg.Seed = seed
	cfg.MallocCache = core.Config{Entries: 32}
	h := hoard.New(cfg)
	defer h.Em.Recycle()
	d := &hoardDriver{
		heap: h,
		th:   h.NewThread(),
		core: cpu.New(cpu.DefaultConfig(), cachesim.NewDefaultHierarchy()),
		rng:  stats.NewRNG(seed*0x9e3779b9 + 0x1234),
	}
	if fp := workload.FootprintOf(w); fp > 0 {
		d.footBase = uint64(1) << 40
		d.footLines = fp / mem.CacheLineSize
	}
	w.Run(d, calls, stats.NewRNG(seed+1))
	h.CheckInvariants()
	return d.mallocCycles, d.mallocCycles + d.freeCycles
}

// runJemalloc executes a workload on the jemalloc substrate.
func runJemalloc(w workload.Workload, mode tcmalloc.Mode, calls int, seed uint64) (mallocCycles, allocCycles uint64) {
	cfg := jemalloc.DefaultConfig()
	cfg.Mode = mode
	cfg.Seed = seed
	cfg.MallocCache = core.Config{Entries: 32} // raw-size keys: generic mode
	h := jemalloc.New(cfg)
	defer h.Em.Recycle()
	d := &jeDriver{
		heap: h,
		tc:   h.NewThread(),
		core: cpu.New(cpu.DefaultConfig(), cachesim.NewDefaultHierarchy()),
		rng:  stats.NewRNG(seed*0x9e3779b9 + 0x1234),
	}
	if fp := workload.FootprintOf(w); fp > 0 {
		d.footBase = uint64(1) << 40
		d.footLines = fp / mem.CacheLineSize
	}
	w.Run(d, calls, stats.NewRNG(seed+1))
	h.CheckInvariants()
	return d.mallocCycles, d.mallocCycles + d.freeCycles
}

var crossWorkloads = []string{"ubench.tp_small", "ubench.gauss_free", "ubench.antagonist", "xapian.pages"}

// CrossAlloc compares Mallacc's improvements across the three allocator
// substrates.
func CrossAlloc(opt ExpOptions) *Report {
	opt = opt.withDefaults()
	rep := &Report{ID: "crossalloc", Title: "Mallacc across allocators: TCMalloc vs jemalloc-style vs Hoard-style substrates"}
	rep.Notes = append(rep.Notes,
		"extension: substantiates Sec. 1's claim that Mallacc serves many allocators, not one implementation",
		"jemalloc/hoard run the malloc cache in generic raw-size mode (no TCMalloc index hardware); 32 entries everywhere",
		"hoard's warm fast path hides latency gains behind its per-heap lock (the accelerator targets lock-free fast paths); its gains come from cache isolation under pressure")
	tb := &table{header: []string{"workload", "tcmalloc malloc-imp", "jemalloc malloc-imp", "hoard malloc-imp", "tcmalloc alloc-imp", "jemalloc alloc-imp", "hoard alloc-imp"}}
	// TCMalloc through the standard driver (raw-size mode for parity).
	var grid []Options
	for _, wn := range crossWorkloads {
		w := mustWorkload(wn)
		grid = append(grid,
			Options{Workload: w, Variant: VariantBaseline, Calls: opt.Calls, Seed: opt.Seed},
			Options{Workload: w, Variant: VariantMallacc, MCEntries: 32, IndexModeOff: true, Calls: opt.Calls, Seed: opt.Seed})
	}
	res := opt.runGrid(grid)
	for i, wn := range crossWorkloads {
		w := mustWorkload(wn)
		tb0, tb1 := res[2*i], res[2*i+1]
		// jemalloc and hoard through the adapters.
		jm0, ja0 := runJemalloc(w, tcmalloc.ModeBaseline, opt.Calls, opt.Seed)
		jm1, ja1 := runJemalloc(w, tcmalloc.ModeMallacc, opt.Calls, opt.Seed)
		hm0, ha0 := runHoard(w, tcmalloc.ModeBaseline, opt.Calls, opt.Seed)
		hm1, ha1 := runHoard(w, tcmalloc.ModeMallacc, opt.Calls, opt.Seed)
		imp := func(base, acc uint64) string {
			return pct(100 * (float64(base) - float64(acc)) / float64(base))
		}
		tb.addRow(wn,
			imp(tb0.MallocCycles, tb1.MallocCycles),
			imp(jm0, jm1),
			imp(hm0, hm1),
			imp(tb0.AllocatorCycles(), tb1.AllocatorCycles()),
			imp(ja0, ja1),
			imp(ha0, ha1))
	}
	rep.addTable("", tb)
	return rep
}
