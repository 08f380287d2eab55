package harness

import (
	"strings"

	"mallacc/internal/core"
	"mallacc/internal/tcmalloc"
)

// The ablation study is an extension beyond the paper's published figures:
// it isolates the contribution of each Mallacc design decision DESIGN.md
// calls out — the index-keyed lookup mode, the LRU replacement, caching
// the second list element, the restore-on-miss prefetch behaviour, the
// prefetch-blocking consistency rule, the hardware sampling counter, and
// the two halves of the malloc cache (size mappings vs list copies).

// ablationConfig is one row of the study.
type ablationConfig struct {
	name  string
	apply func(*Options)
}

func ablationConfigs() []ablationConfig {
	return []ablationConfig{
		{"full design", func(*Options) {}},
		{"raw-size keys (no index mode)", func(o *Options) { o.IndexModeOff = true }},
		{"FIFO replacement", func(o *Options) { o.MCReplacement = core.ReplaceFIFO }},
		{"head-only (no Next slot)", func(o *Options) { o.MCNoNextSlot = true }},
		{"no restore-on-miss prefetch", func(o *Options) { o.MCNoRestoreOnMiss = true }},
		{"no prefetch blocking (unsafe)", func(o *Options) { o.NoPrefetchBlocking = true }},
		{"software sampling", func(o *Options) { o.Ablate = tcmalloc.Ablation{NoHWSampler: true} }},
		{"size cache only (no list ops)", func(o *Options) { o.Ablate = tcmalloc.Ablation{NoListCache: true} }},
		{"list cache only (no size lookup)", func(o *Options) { o.Ablate = tcmalloc.Ablation{NoSizeCache: true} }},
	}
}

var ablationWorkloads = []string{
	"ubench.tp_small", "ubench.tp", "ubench.antagonist", "xapian.pages", "483.xalancbmk",
}

// Ablation runs the component ablation study: malloc-time improvement over
// baseline for the full design and with each design decision removed.
func Ablation(opt ExpOptions) *Report {
	opt = opt.withDefaults()
	rep := &Report{ID: "ablation", Title: "Design-decision ablations (allocator malloc+free time improvement vs baseline)"}
	rep.Notes = append(rep.Notes,
		"extension beyond the paper's figures; 32-entry cache (so tp's 25 classes fit and the blocking rule is exercised)",
		"'no prefetch blocking' is a timing-only what-if: real hardware needs the rule for consistency (Sec. 4.1)")

	// The grid: every workload's baseline, then one row of mallacc runs
	// per configuration.
	var grid []Options
	for _, wn := range ablationWorkloads {
		grid = append(grid, Options{Workload: mustWorkload(wn), Variant: VariantBaseline, Calls: opt.Calls, Seed: opt.Seed})
	}
	configs := ablationConfigs()
	for _, cfg := range configs {
		for _, wn := range ablationWorkloads {
			o := Options{
				Workload:  mustWorkload(wn),
				Variant:   VariantMallacc,
				MCEntries: 32,
				Calls:     opt.Calls,
				Seed:      opt.Seed,
			}
			cfg.apply(&o)
			grid = append(grid, o)
		}
	}
	res := opt.runGrid(grid)
	baselines, rows := res[:len(ablationWorkloads)], res[len(ablationWorkloads):]

	header := []string{"configuration"}
	for _, wn := range ablationWorkloads {
		header = append(header, shortName(wn))
	}
	tb := &table{header: header}
	for i, cfg := range configs {
		row := []string{cfg.name}
		for j := range ablationWorkloads {
			b := float64(baselines[j].AllocatorCycles())
			r := rows[i*len(ablationWorkloads)+j]
			imp := 100 * (b - float64(r.AllocatorCycles())) / b
			row = append(row, pct(imp))
		}
		tb.addRow(row...)
	}
	rep.addTable("", tb)
	return rep
}

func shortName(wn string) string { return strings.TrimPrefix(wn, "ubench.") }
