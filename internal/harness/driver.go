// Package harness wires the pieces of the reproduction together: it runs a
// workload against an allocator configuration (baseline, Mallacc, or the
// limit study) on the simulated core, collects the statistics every figure
// and table of the paper is built from, and provides one experiment runner
// per figure/table (experiments.go).
package harness

import (
	"mallacc/internal/cachesim"
	"mallacc/internal/catalog"
	"mallacc/internal/core"
	"mallacc/internal/cpu"
	"mallacc/internal/lockfree"
	"mallacc/internal/mem"
	"mallacc/internal/offload"
	"mallacc/internal/progress"
	"mallacc/internal/stats"
	"mallacc/internal/tcmalloc"
	"mallacc/internal/telemetry"
	"mallacc/internal/uop"
	"mallacc/internal/workload"
)

// Variant selects the simulated configuration of a run.
type Variant uint8

const (
	// VariantBaseline is unmodified TCMalloc on the stock core.
	VariantBaseline Variant = iota
	// VariantMallacc runs the accelerated fast path.
	VariantMallacc
	// VariantLimit is the paper's limit study: baseline software with the
	// three fast-path steps ignored by timing.
	VariantLimit
	// VariantOffload dispatches malloc/free over a modeled queue to a
	// dedicated lightweight allocation core (internal/offload).
	VariantOffload
)

func (v Variant) String() string {
	switch v {
	case VariantMallacc:
		return "mallacc"
	case VariantLimit:
		return "limit"
	case VariantOffload:
		return "offload"
	default:
		return "baseline"
	}
}

// VariantByName maps a catalog variant name to the enum; unknown names
// return false.
func VariantByName(name string) (Variant, bool) {
	switch name {
	case "", "baseline":
		return VariantBaseline, true
	case "mallacc":
		return VariantMallacc, true
	case "limit":
		return VariantLimit, true
	case "offload":
		return VariantOffload, true
	}
	return VariantBaseline, false
}

// Options configures one simulation run.
type Options struct {
	Workload workload.Workload
	Variant  Variant
	// Backend selects the allocator substrate: "" or "tcmalloc" runs the
	// default heap, "lockfree" the per-class lock-free stack backend. The
	// (backend, variant) pair is validated against internal/catalog.
	Backend string
	// MCEntries sizes the malloc cache (default 32, the paper's headline
	// configuration; Fig. 17 sweeps it and Sec. 6.2 settles on 16).
	MCEntries int
	// IndexMode enables the TCMalloc-specific index keying (default on).
	IndexModeOff bool
	// DropSteps selects which fast-path steps timing ignores; used by the
	// Figure 4 per-step ablations. Ignored unless Variant == VariantLimit
	// or explicitly set with UseDropSteps.
	DropSteps    [uop.NumSteps]bool
	UseDropSteps bool
	// Calls is the allocator-call budget (default 50000).
	Calls int
	// Seed drives all randomness in the run.
	Seed uint64
	// SampleInterval overrides the sampler (nil = allocator default).
	SampleInterval *int64
	// DisableSizedDelete turns off -fsized-deallocation.
	DisableSizedDelete bool
	// AnalyticCPU swaps the detailed out-of-order model for the
	// dependence-graph reference model (Table 1 validation).
	AnalyticCPU bool

	// Ablation controls (VariantMallacc only): disable individual
	// accelerator components or design rules.
	Ablate            tcmalloc.Ablation
	MCReplacement     core.Replacement
	MCNoNextSlot      bool
	MCNoRestoreOnMiss bool
	// NoPrefetchBlocking removes the entry-blocking consistency rule from
	// timing.
	NoPrefetchBlocking bool

	// Threads runs the workload over several thread caches round-robin
	// (default 1). Frees may land on a different thread than the matching
	// malloc, migrating memory through the central lists.
	Threads int
	// SwitchEvery injects a context switch every N allocator calls:
	// execution rotates to the next thread and the malloc cache is
	// flushed (no writebacks needed — Sec. 4.1). 0 disables switches.
	SwitchEvery int

	// Progress, when set, receives periodic execution snapshots plus one
	// final Done snapshot. The cadence is ProgressEvery simulated cycles
	// (progress.DefaultEvery when 0) on the core's logical clock, so the
	// snapshot stream is a pure function of the run's options — identical
	// seed and spec publish identical events. Observability only: it never
	// changes simulation results.
	Progress      progress.Reporter
	ProgressEvery uint64
}

// Result is everything a run produces.
type Result struct {
	Workload string
	Variant  Variant
	// Backend is the allocator substrate the run used ("" = tcmalloc).
	Backend string

	MallocHist *stats.DurationHist
	FreeHist   *stats.DurationHist
	// FastMallocCycles/Calls cover malloc calls served by a thread cache.
	FastMallocCycles uint64
	FastMallocCalls  uint64

	MallocCycles, FreeCycles uint64
	MallocCalls, FreeCalls   uint64
	AppCycles                uint64
	TotalCycles              uint64

	// ClassCounts histograms the size class of every small malloc
	// (Figure 6).
	ClassCounts map[uint8]uint64

	// ContextSwitches counts injected switches (multithreaded runs).
	ContextSwitches uint64

	// Memory accounting (Sec. 2: allocators are judged on both speed and
	// fragmentation): OSBytes is what the allocator requested from the
	// simulated OS, PeakLiveBytes the largest rounded-live footprint the
	// workload held.
	OSBytes       uint64
	PeakLiveBytes uint64

	Heap tcmalloc.HeapStats
	CPU  cpu.Stats
	// MC holds accelerator statistics (VariantMallacc only).
	MC *core.Stats
	// LockFree holds the lock-free backend's stats (Backend "lockfree"
	// only; nil otherwise).
	LockFree *lockfree.Stats
	// Offload holds the allocation-core engine's stats (VariantOffload
	// only; nil otherwise).
	Offload *offload.Stats

	// Telemetry is the run's full metrics snapshot: every layer's counters
	// plus per-step cycle attribution (step.sizeclass.cycles, ...), keyed
	// by dotted metric name.
	Telemetry telemetry.Snapshot
}

// AllocatorCycles returns cycles spent in malloc+free.
func (r *Result) AllocatorCycles() uint64 { return r.MallocCycles + r.FreeCycles }

// AllocatorFraction returns the share of total time spent in the allocator
// (Figure 18).
func (r *Result) AllocatorFraction() float64 {
	if r.TotalCycles == 0 {
		return 0
	}
	return float64(r.AllocatorCycles()) / float64(r.TotalCycles)
}

// MeanMallocCycles returns the average malloc call latency.
func (r *Result) MeanMallocCycles() float64 {
	if r.MallocCalls == 0 {
		return 0
	}
	return float64(r.MallocCycles) / float64(r.MallocCalls)
}

// MeanFastMallocCycles returns the average latency of thread-cache-hit
// malloc calls (the fast path of Figure 4).
func (r *Result) MeanFastMallocCycles() float64 {
	if r.FastMallocCalls == 0 {
		return 0
	}
	return float64(r.FastMallocCycles) / float64(r.FastMallocCalls)
}

// driver implements workload.App over the simulated system.
type driver struct {
	heap    *tcmalloc.Heap
	threads []*tcmalloc.ThreadCache
	cur     int
	core    *cpu.Core
	rng     *stats.RNG
	res     *Result
	track   *progress.Tracker

	switchEvery int
	callCount   int

	footBase  uint64
	footLines uint64 // number of cache lines in the app footprint
	touchBuf  []uint64

	// liveBytes is the rounded footprint of the live objects. Free reads
	// an object's rounded size back from the page map (roundedSize), so no
	// per-object table is kept host-side.
	liveBytes uint64
}

// tc returns the active thread cache.
func (d *driver) tc() *tcmalloc.ThreadCache { return d.threads[d.cur] }

// tick counts an allocator call and injects context switches.
func (d *driver) tick() {
	if d.switchEvery <= 0 {
		return
	}
	d.callCount++
	if d.callCount%d.switchEvery == 0 {
		d.cur = (d.cur + 1) % len(d.threads)
		d.heap.FlushMallocCache()
		d.core.ContextSwitch()
		// The OS switch itself: a few microseconds of kernel time.
		d.core.AdvanceApp(3000, nil)
		d.res.AppCycles += 3000
		d.res.ContextSwitches++
	}
}

// Run executes a workload under the given options and returns the
// collected result.
func Run(opt Options) *Result {
	backend := opt.Backend
	if backend == "" {
		backend = catalog.BackendTCMalloc
	}
	if err := catalog.CheckCombo(backend, opt.Variant.String()); err != nil {
		panic("harness: " + err.Error())
	}
	if opt.Calls <= 0 {
		opt.Calls = 50000
	}
	if opt.MCEntries <= 0 {
		opt.MCEntries = 32
	}
	if backend == catalog.BackendLockFree {
		return runLockfree(opt)
	}
	if opt.Variant == VariantOffload {
		return runOffload(opt)
	}
	hCfg := tcmalloc.DefaultConfig()
	hCfg.Seed = opt.Seed
	if opt.Variant == VariantMallacc {
		hCfg.Mode = tcmalloc.ModeMallacc
		hCfg.MallocCache = core.Config{
			Entries:         opt.MCEntries,
			IndexMode:       !opt.IndexModeOff,
			Replacement:     opt.MCReplacement,
			NoNextSlot:      opt.MCNoNextSlot,
			NoRestoreOnMiss: opt.MCNoRestoreOnMiss,
		}
		hCfg.Ablate = opt.Ablate
	}
	if opt.SampleInterval != nil {
		hCfg.SampleInterval = *opt.SampleInterval
	}
	if opt.DisableSizedDelete {
		hCfg.SizedDelete = false
	}
	heap := tcmalloc.New(hCfg)
	// The heap dies with this run; hand its trace slab back to the pool.
	defer heap.Em.Recycle()
	if opt.Threads <= 0 {
		opt.Threads = 1
	}
	threads := make([]*tcmalloc.ThreadCache, opt.Threads)
	for i := range threads {
		threads[i] = heap.NewThread()
	}
	metaBytes := heap.Space.SbrkBytes // fixed metadata arena, excluded from OSBytes

	cCfg := cpu.DefaultConfig()
	if opt.Variant == VariantLimit {
		if opt.UseDropSteps {
			cCfg.DropSteps = opt.DropSteps
		} else {
			cCfg.DropSteps[uop.StepSizeClass] = true
			cCfg.DropSteps[uop.StepSampling] = true
			cCfg.DropSteps[uop.StepPushPop] = true
		}
	} else if opt.UseDropSteps {
		cCfg.DropSteps = opt.DropSteps
	}
	cCfg.NoPrefetchBlocking = opt.NoPrefetchBlocking
	c := cpu.New(cCfg, cachesim.NewDefaultHierarchy())
	c.SetAnalytic(opt.AnalyticCPU)

	// Telemetry: every layer registers into one registry; the step profiler
	// rides the core's per-call attribution callback.
	reg := telemetry.NewRegistry()
	prof := telemetry.NewStepProfiler(StepNames())
	prof.Register(reg)
	c.SetStepObserver(prof.ObserveCall)
	c.RegisterMetrics(reg)
	c.Memory().RegisterMetrics(reg)
	heap.RegisterMetrics(reg)

	res := &Result{
		Workload:    opt.Workload.Name(),
		Variant:     opt.Variant,
		MallocHist:  stats.NewDurationHist(),
		FreeHist:    stats.NewDurationHist(),
		ClassCounts: map[uint8]uint64{},
	}
	d := &driver{
		heap: heap, threads: threads, core: c,
		rng:         stats.NewRNG(opt.Seed*0x9e3779b9 + 0x1234),
		res:         res,
		track:       progress.NewTracker(opt.Progress, opt.ProgressEvery),
		switchEvery: opt.SwitchEvery,
	}
	if fp := workload.FootprintOf(opt.Workload); fp > 0 {
		d.footBase = uint64(1) << 40
		d.footLines = fp / mem.CacheLineSize
	}

	start := c.Cycle()
	opt.Workload.Run(d, opt.Calls, stats.NewRNG(opt.Seed+1))
	d.track.Finish(c.Cycle(), d.fillSnapshot)
	res.TotalCycles = c.Cycle() - start
	res.OSBytes = heap.Space.SbrkBytes - metaBytes
	res.Heap = heap.StatsSnapshot()
	res.CPU = c.Stats
	if heap.MC != nil {
		mcStats := heap.MC.Stats
		res.MC = &mcStats
	}
	res.Telemetry = reg.Snapshot()
	heap.CheckInvariants()
	return res
}

// StepNames returns the fast-path step tag names in uop.Step order — the
// labels the per-step attribution metrics are registered under.
func StepNames() []string {
	names := make([]string, uop.NumSteps)
	for i := range names {
		names[i] = uop.Step(i).String()
	}
	return names
}

func (d *driver) Malloc(size uint64) uint64 {
	d.heap.Em.Reset()
	tc := d.tc()
	fastBefore := tc.Stats.FastHits
	addr := d.heap.Malloc(tc, size)
	d.tick()
	cyc := d.core.RunTrace(d.heap.Em.Trace())
	d.res.MallocHist.Add(cyc)
	d.res.MallocCycles += cyc
	d.res.MallocCalls++
	if tc.Stats.FastHits != fastBefore {
		d.res.FastMallocCycles += cyc
		d.res.FastMallocCalls++
	}
	if cl, _, ok := d.heap.SizeMap.ClassFor(size); ok {
		d.res.ClassCounts[cl]++
	}
	// Fragmentation accounting: track the rounded footprint of live
	// objects.
	rounded := size
	if _, r, ok := d.heap.SizeMap.ClassFor(size); ok {
		rounded = r
	} else {
		rounded = mem.RoundUp(size, mem.PageSize)
	}
	d.liveBytes += rounded
	if d.liveBytes > d.res.PeakLiveBytes {
		d.res.PeakLiveBytes = d.liveBytes
	}
	d.track.Observe(d.core.Cycle(), d.fillSnapshot)
	return addr
}

// fillSnapshot populates a progress snapshot from the run's live counters.
func (d *driver) fillSnapshot(s *progress.Snapshot) {
	s.Instructions = d.core.Stats.Uops
	s.MallocCalls = d.res.MallocCalls
	s.FreeCalls = d.res.FreeCalls
	if d.heap.MC != nil {
		st := d.heap.MC.Stats
		s.MCHitRate = telemetry.Ratio(st.LookupHits, st.LookupMisses)
	}
}

func (d *driver) Free(addr uint64, sizeHint uint64) {
	d.liveBytes -= d.roundedSize(addr)
	d.heap.Em.Reset()
	d.heap.Free(d.tc(), addr, sizeHint)
	d.tick()
	cyc := d.core.RunTrace(d.heap.Em.Trace())
	d.res.FreeHist.Add(cyc)
	d.res.FreeCycles += cyc
	d.res.FreeCalls++
	d.track.Observe(d.core.Cycle(), d.fillSnapshot)
}

// roundedSize returns the rounded footprint of the live object at addr,
// read host-side from the page map (no micro-ops are emitted): its span's
// class size for a small object, the span's page extent for a large one —
// exactly the rounding Malloc added.
func (d *driver) roundedSize(addr uint64) uint64 {
	s := d.heap.PageHeap.PageMap().Get(addr >> mem.PageShift)
	if s == nil {
		return 0
	}
	if s.SizeClass == 0 {
		return s.ByteLen()
	}
	return d.heap.SizeMap.ClassSize(s.SizeClass)
}

func (d *driver) Work(cycles uint64, lines int) {
	if d.footLines > 0 && lines > 0 {
		if cap(d.touchBuf) < lines {
			d.touchBuf = make([]uint64, lines)
		}
		buf := d.touchBuf[:lines]
		for i := range buf {
			buf[i] = d.footBase + d.rng.Uint64n(d.footLines)*mem.CacheLineSize
		}
		d.core.AdvanceApp(cycles, buf)
	} else {
		d.core.AdvanceApp(cycles, nil)
	}
	d.res.AppCycles += cycles
}

func (d *driver) Antagonize() {
	d.core.Memory().Antagonize()
}
