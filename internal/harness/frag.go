package harness

import (
	"fmt"

	"mallacc/internal/workload"
)

// The fragmentation study is an extension grounding Section 2's framing:
// "Allocators are judged on both the speed with which they satisfy a
// request and their memory fragmentation, which measures how much memory
// is requested from the OS vs. how much memory the application actually
// uses." The size-class generator bounds per-object internal
// fragmentation; this experiment measures the end-to-end overhead each
// workload actually sees, and confirms Mallacc leaves it untouched (the
// accelerator changes timing only, never placement).
func Frag(opt ExpOptions) *Report {
	opt = opt.withDefaults()
	rep := &Report{ID: "frag", Title: "Memory footprint: OS bytes vs peak live bytes (baseline TCMalloc)"}
	rep.Notes = append(rep.Notes,
		"extension: quantifies the speed/fragmentation tradeoff of Sec. 2",
		"overhead = OS-requested (excl. fixed metadata) / peak rounded-live; Mallacc is placement-neutral so its column must match",
		"churn-heavy workloads with tiny live sets show the allocator's retention floor (thread caches, kept spans), not waste per object")
	tb := &table{header: []string{"workload", "OS MiB", "peak live MiB", "overhead", "mallacc overhead"}}
	macro := workload.Macro()
	var grid []Options
	for _, w := range macro {
		grid = append(grid,
			Options{Workload: w, Variant: VariantBaseline, Calls: opt.Calls, Seed: opt.Seed},
			Options{Workload: w, Variant: VariantMallacc, MCEntries: 32, Calls: opt.Calls, Seed: opt.Seed})
	}
	res := opt.runGrid(grid)
	for i, w := range macro {
		base, mall := res[2*i], res[2*i+1]
		ratio := func(r *Result) float64 {
			if r.PeakLiveBytes == 0 {
				return 0
			}
			return float64(r.OSBytes) / float64(r.PeakLiveBytes)
		}
		tb.addRow(w.Name(),
			fmt.Sprintf("%.1f", float64(base.OSBytes)/(1<<20)),
			fmt.Sprintf("%.1f", float64(base.PeakLiveBytes)/(1<<20)),
			fmt.Sprintf("%.2fx", ratio(base)),
			fmt.Sprintf("%.2fx", ratio(mall)))
	}
	rep.addTable("", tb)
	return rep
}
