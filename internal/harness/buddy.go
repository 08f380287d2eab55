package harness

import (
	"fmt"

	"mallacc/internal/buddy"
	"mallacc/internal/cachesim"
	"mallacc/internal/cpu"
	"mallacc/internal/mem"
	"mallacc/internal/stats"
	"mallacc/internal/tcmalloc"
)

// The buddy experiment completes the paper's Sec. 2 argument for why
// Mallacc accelerates free-list allocators instead of putting a buddy
// allocator in hardware (as prior work did): a combinational buddy unit
// answers in a handful of cycles — beating even the Mallacc fast path —
// but pays unbounded power-of-two internal fragmentation, while Mallacc
// keeps TCMalloc's bounded-fragmentation size classes.

// buddyDriver adapts the buddy heap to workload.App.
type buddyDriver struct {
	heap *buddy.Heap
	core *cpu.Core

	mallocCycles uint64
	mallocCalls  uint64
}

func (d *buddyDriver) Malloc(size uint64) uint64 {
	d.heap.Em.Reset()
	a := d.heap.Malloc(size)
	d.mallocCycles += d.core.RunTrace(d.heap.Em.Trace())
	d.mallocCalls++
	return a
}

func (d *buddyDriver) Free(addr, _ uint64) {
	d.heap.Em.Reset()
	d.heap.Free(addr)
	d.core.RunTrace(d.heap.Em.Trace())
}

func (d *buddyDriver) Work(cycles uint64, _ int) { d.core.AdvanceApp(cycles, nil) }
func (d *buddyDriver) Antagonize()               { d.core.Memory().Antagonize() }

var buddyWorkloads = []string{"471.omnetpp", "ubench.gauss_free", "xapian.pages", "483.xalancbmk"}

// Buddy compares a hardware buddy allocator against TCMalloc with and
// without Mallacc: mean malloc latency and internal fragmentation.
func Buddy(opt ExpOptions) *Report {
	opt = opt.withDefaults()
	rep := &Report{ID: "buddy", Title: "Hardware buddy allocator vs TCMalloc+Mallacc (speed and fragmentation)"}
	rep.Notes = append(rep.Notes,
		"extension: the Sec. 2 tradeoff — prior hardware allocators implemented buddy systems (combinational, very fast)",
		"but modern allocators abandoned them for fragmentation; frag = allocated/requested bytes (internal only)",
		"workloads dominated by power-of-two requests (xapian) escape the penalty; typical object sizes (omnetpp's 40/80/208B events) pay heavily")
	tb := &table{header: []string{"workload", "tcm-base cyc", "tcm-mallacc cyc", "hw-buddy cyc", "tcm frag", "buddy frag"}}
	var grid []Options
	for _, wn := range buddyWorkloads {
		w := mustWorkload(wn)
		grid = append(grid,
			Options{Workload: w, Variant: VariantBaseline, Calls: opt.Calls, Seed: opt.Seed},
			Options{Workload: w, Variant: VariantMallacc, MCEntries: 32, Calls: opt.Calls, Seed: opt.Seed})
	}
	res := opt.runGrid(grid)
	for i, wn := range buddyWorkloads {
		w := mustWorkload(wn)
		base, mall := res[2*i], res[2*i+1]

		bh := buddy.New(mem.NewDefaultSpace())
		bh.Variant = buddy.Hardware
		bd := &buddyDriver{heap: bh, core: cpu.New(cpu.DefaultConfig(), cachesim.NewDefaultHierarchy())}
		w.Run(bd, opt.Calls, stats.NewRNG(opt.Seed+1))
		bh.CheckInvariants()

		tcmFrag := tcmallocInternalFrag(base)
		tb.addRow(wn,
			fmt.Sprintf("%.1f", base.MeanMallocCycles()),
			fmt.Sprintf("%.1f", mall.MeanMallocCycles()),
			fmt.Sprintf("%.1f", float64(bd.mallocCycles)/float64(bd.mallocCalls)),
			fmt.Sprintf("%.2fx", tcmFrag),
			fmt.Sprintf("%.2fx", bh.Stats.InternalFragmentation()))
	}
	rep.addTable("", tb)
	return rep
}

// tcmallocInternalFrag estimates TCMalloc's internal fragmentation from
// the run's size-class usage: rounded/requested under the generated table.
func tcmallocInternalFrag(r *Result) float64 {
	// Reconstruct from class counts: each class's expected request is
	// approximated by the midpoint of (previous class size, class size] —
	// a slight overestimate of waste, still bounded by the 12.5% design
	// rule plus alignment.
	h := tcmalloc.New(tcmalloc.DefaultConfig())
	var alloc, req float64
	for cls, count := range r.ClassCounts {
		size := float64(h.SizeMap.ClassSize(cls))
		prev := 0.0
		if cls > 1 {
			prev = float64(h.SizeMap.ClassSize(cls - 1))
		}
		mid := (prev + size) / 2
		alloc += size * float64(count)
		req += mid * float64(count)
	}
	if req == 0 {
		return 0
	}
	return alloc / req
}
