package main

import (
	"fmt"
	"sync"
	"time"

	"mallacc/internal/cachesim"
	"mallacc/internal/catalog"
	"mallacc/internal/core"
	"mallacc/internal/cpu"
	"mallacc/internal/harness"
	"mallacc/internal/mem"
	"mallacc/internal/multicore"
	"mallacc/internal/stats"
	"mallacc/internal/tcmalloc"
	"mallacc/internal/uop"
	"mallacc/internal/workload"
)

// coreLayers accumulates host time and counts at the layer boundaries of
// single-core runs: harness.Run with a timed workload wrapper, and a
// replica of the run that calls the allocator, the core and the cache
// model directly.
type coreLayers struct {
	cells int

	harnessSetup, harnessFinish, workloadGen, render time.Duration

	calls, mallocCalls, fastHits, emitted uint64
	heap, runTrace, app                   time.Duration
	cpuUops, cpuCycles                    uint64

	accesses       uint64
	replay         time.Duration
	replayMismatch int
	// caches sums the runs' L1D, L2, L3 and dTLB counters from telemetry.
	caches [4]cachesim.Stats

	mc core.Stats
}

var cacheLevels = [4]string{"l1d", "l2", "l3", "dtlb"}

// addResult folds a harness.Run result's simulated counters in.
func (l *coreLayers) addResult(r *harness.Result) {
	l.cells++
	for i, lv := range cacheLevels {
		l.caches[i].Hits += uint64(r.Telemetry.Value(lv + ".hits"))
		l.caches[i].Misses += uint64(r.Telemetry.Value(lv + ".misses"))
	}
	if r.MC != nil {
		addMC(&l.mc, r.MC)
	}
}

func addMC(dst, src *core.Stats) {
	dst.LookupHits += src.LookupHits
	dst.LookupMisses += src.LookupMisses
	dst.PopHits += src.PopHits
	dst.PopMisses += src.PopMisses
}

// tracedWorkload wraps a stock generator so that harness.Run's time splits
// into set-up, the generator's own work, the App callbacks it makes, and
// finish. It keeps the generator's name and footprint, so the run is the
// same simulation.
type tracedWorkload struct {
	inner      workload.Workload
	start, end time.Time
	callbacks  time.Duration
}

func (w *tracedWorkload) Name() string      { return w.inner.Name() }
func (w *tracedWorkload) Footprint() uint64 { return workload.FootprintOf(w.inner) }

func (w *tracedWorkload) Run(app workload.App, budget int, rng *stats.RNG) {
	w.start = time.Now()
	w.inner.Run(&timedApp{app: app, total: &w.callbacks}, budget, rng)
	w.end = time.Now()
}

// timedApp times every call a generator makes into the simulated machine.
type timedApp struct {
	app   workload.App
	total *time.Duration
}

func (a *timedApp) Malloc(size uint64) uint64 {
	t := time.Now()
	addr := a.app.Malloc(size)
	*a.total += time.Since(t)
	return addr
}

func (a *timedApp) Free(addr, sizeHint uint64) {
	t := time.Now()
	a.app.Free(addr, sizeHint)
	*a.total += time.Since(t)
}

func (a *timedApp) Work(cycles uint64, lines int) {
	t := time.Now()
	a.app.Work(cycles, lines)
	*a.total += time.Since(t)
}

func (a *timedApp) Antagonize() {
	t := time.Now()
	a.app.Antagonize()
	*a.total += time.Since(t)
}

// tracedRun runs opt through harness.Run with the workload wrapped, and
// records a harness.Run span with a workload.Run child.
func tracedRun(opt harness.Options, tr *tracer, parent, req int64, acc *coreLayers) *harness.Result {
	w := &tracedWorkload{inner: opt.Workload}
	opt.Workload = w
	id := tr.reserve()
	start := time.Now()
	res := harness.Run(opt)
	end := time.Now()
	tr.finish(id, "harness.Run", parent, req, start, end)
	tr.record("workload.Run", id, req, w.start, w.end)
	acc.harnessSetup += w.start.Sub(start)
	acc.harnessFinish += end.Sub(w.end)
	acc.workloadGen += w.end.Sub(w.start) - w.callbacks
	acc.addResult(res)
	return res
}

// totals are the simulated figures a replica must reproduce exactly.
type totals struct{ total, malloc, free uint64 }

func totalsOf(r *harness.Result) totals {
	return totals{r.TotalCycles, r.MallocCycles, r.FreeCycles}
}

// replicable reports why opt is outside what the replica reproduces, or
// nil: it covers the single-thread TCMalloc runs of the paper's grids.
func replicable(opt harness.Options) error {
	switch {
	case catalog.NormalizeBackend(opt.Backend) != "":
		return fmt.Errorf("backend %q", opt.Backend)
	case opt.Variant > harness.VariantLimit:
		return fmt.Errorf("variant %s", opt.Variant)
	case opt.Threads > 1 || opt.SwitchEvery > 0:
		return fmt.Errorf("threads/context switches")
	case opt.AnalyticCPU || opt.UseDropSteps || opt.NoPrefetchBlocking:
		return fmt.Errorf("core ablations")
	}
	return nil
}

// replicaApp is a copy of the App that harness.Run runs a single-thread
// TCMalloc workload against. It times each call into the allocator, the
// core and the app-work model separately, and captures every address the
// cache hierarchy sees, in order.
type replicaApp struct {
	heap *tcmalloc.Heap
	tc   *tcmalloc.ThreadCache
	core *cpu.Core
	rng  *stats.RNG
	drop [uop.NumSteps]bool
	acc  *coreLayers

	footBase, footLines uint64
	touchBuf            []uint64

	sums totals
	// addrs are the hierarchy's accesses in order; antag holds the
	// positions in addrs at which Antagonize ran.
	addrs []uint64
	antag []int
}

func (a *replicaApp) call(run func()) uint64 {
	em := a.heap.Em
	em.Reset()
	t0 := time.Now()
	run()
	t1 := time.Now()
	a.capture(em.Trace())
	t2 := time.Now()
	cyc := a.core.RunTrace(em.Trace())
	a.acc.runTrace += time.Since(t2)
	a.acc.heap += t1.Sub(t0)
	a.acc.emitted += uint64(em.Len())
	a.acc.calls++
	return cyc
}

func (a *replicaApp) Malloc(size uint64) uint64 {
	var addr uint64
	cyc := a.call(func() { addr = a.heap.Malloc(a.tc, size) })
	a.sums.malloc += cyc
	a.acc.mallocCalls++
	return addr
}

func (a *replicaApp) Free(addr, sizeHint uint64) {
	a.sums.free += a.call(func() { a.heap.Free(a.tc, addr, sizeHint) })
}

func (a *replicaApp) Work(cycles uint64, lines int) {
	var touches []uint64
	if a.footLines > 0 && lines > 0 {
		if cap(a.touchBuf) < lines {
			a.touchBuf = make([]uint64, lines)
		}
		touches = a.touchBuf[:lines]
		for i := range touches {
			touches[i] = a.footBase + a.rng.Uint64n(a.footLines)*mem.CacheLineSize
		}
		a.addrs = append(a.addrs, touches...)
	}
	t := time.Now()
	a.core.AdvanceApp(cycles, touches)
	a.acc.app += time.Since(t)
}

func (a *replicaApp) Antagonize() {
	a.antag = append(a.antag, len(a.addrs))
	t := time.Now()
	a.core.Memory().Antagonize()
	a.acc.app += time.Since(t)
}

// capture appends the addresses RunTrace will send to the hierarchy:
// loads, stores and software prefetches, and malloc-cache next-pointer
// prefetches that hold an entry and an address. Micro-ops of steps the
// core drops from timing never reach memory.
func (a *replicaApp) capture(t uop.Trace) {
	for i := range t.Ops {
		op := &t.Ops[i]
		if a.drop[op.Step] && !op.Kind.IsMallacc() {
			continue
		}
		switch op.Kind {
		case uop.Load, uop.Store, uop.SWPrefetch:
			a.addrs = append(a.addrs, op.Addr)
		case uop.McNxtPrefetch:
			if op.MCEntry >= 0 && op.Addr != 0 {
				a.addrs = append(a.addrs, op.Addr)
			}
		}
	}
}

// replicate re-runs opt the way harness.Run does, with each layer timed,
// then replays the captured addresses into a fresh hierarchy. It returns
// the simulated totals for comparison with harness.Run's. addrBuf is
// reused across calls to keep the capture's memory bounded.
func replicate(opt harness.Options, acc *coreLayers, addrBuf *[]uint64) (totals, error) {
	if err := replicable(opt); err != nil {
		return totals{}, fmt.Errorf("replica does not cover %v", err)
	}
	w, ok := workload.ByName(opt.Workload.Name())
	if !ok {
		return totals{}, fmt.Errorf("replica: unknown workload %q", opt.Workload.Name())
	}
	if opt.Calls <= 0 {
		opt.Calls = 50000
	}
	if opt.MCEntries <= 0 {
		opt.MCEntries = 32
	}
	hCfg := tcmalloc.DefaultConfig()
	hCfg.Seed = opt.Seed
	if opt.Variant == harness.VariantMallacc {
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
	defer heap.Em.Recycle()
	cCfg := cpu.DefaultConfig()
	if opt.Variant == harness.VariantLimit {
		cCfg.DropSteps[uop.StepSizeClass] = true
		cCfg.DropSteps[uop.StepSampling] = true
		cCfg.DropSteps[uop.StepPushPop] = true
	}
	a := &replicaApp{
		heap:  heap,
		tc:    heap.NewThread(),
		core:  cpu.New(cCfg, cachesim.NewDefaultHierarchy()),
		rng:   stats.NewRNG(opt.Seed*0x9e3779b9 + 0x1234),
		drop:  cCfg.DropSteps,
		acc:   acc,
		addrs: (*addrBuf)[:0],
	}
	if fp := workload.FootprintOf(w); fp > 0 {
		a.footBase = uint64(1) << 40
		a.footLines = fp / mem.CacheLineSize
	}
	w.Run(a, opt.Calls, stats.NewRNG(opt.Seed+1))
	a.sums.total = a.core.Cycle()
	acc.fastHits += a.tc.Stats.FastHits
	acc.cpuUops += a.core.Stats.Uops
	acc.cpuCycles += a.core.Stats.Cycles
	*addrBuf = a.addrs

	if err := replay(a.addrs, a.antag, a.core.Memory(), acc); err != nil {
		acc.replayMismatch++
		return a.sums, err
	}
	return a.sums, nil
}

// replay feeds the captured accesses into a fresh default hierarchy and
// checks that every level ends with the run's exact counters; only then
// does the replay time count towards cachesim.ns_per_access.
func replay(addrs []uint64, antag []int, run *cachesim.Hierarchy, acc *coreLayers) error {
	h := cachesim.NewDefaultHierarchy()
	start := time.Now()
	j := 0
	for i, addr := range addrs {
		for j < len(antag) && antag[j] == i {
			h.Antagonize()
			j++
		}
		h.Load(addr)
	}
	for ; j < len(antag); j++ {
		h.Antagonize()
	}
	took := time.Since(start)
	got := [4]*cachesim.Cache{h.L1D, h.L2, h.L3, h.DTLB}
	want := [4]*cachesim.Cache{run.L1D, run.L2, run.L3, run.DTLB}
	for i := range got {
		if got[i].Stats != want[i].Stats {
			return fmt.Errorf("cachesim replay: %s counters %+v, run had %+v", cacheLevels[i], got[i].Stats, want[i].Stats)
		}
	}
	acc.accesses += uint64(len(addrs))
	acc.replay += took
	return nil
}

// checkReplica runs the replica of a cell harness.Run already ran and
// checks that it reproduced the run's simulated totals.
func checkReplica(opt harness.Options, res *harness.Result, tr *tracer, parent, req int64, acc *coreLayers, addrBuf *[]uint64) error {
	start := time.Now()
	got, err := replicate(opt, acc, addrBuf)
	tr.record("replica", parent, req, start, time.Now())
	if err == nil && got != totalsOf(res) {
		err = fmt.Errorf("replica of %s/%s: totals %+v, harness.Run %+v", opt.Workload.Name(), opt.Variant, got, totalsOf(res))
	}
	return err
}

// clusterLayers accumulates multicore.New and Engine.Run time per cell.
type clusterLayers struct {
	cells                   int
	newTime, runTime        time.Duration
	lockfreeRun, offloadRun time.Duration
	newAlloc                uint64
	calls                   uint64
	mc                      core.Stats
}

// clusterTracer is an ExpOptions.SubmitCluster hook that builds and runs
// each engine with spans around multicore.New and Engine.Run. Like the
// service's run cache it memoizes identical configs, so an experiment pair
// does the same work traced as it does untraced.
type clusterTracer struct {
	tr  *tracer
	acc *clusterLayers

	mu   sync.Mutex
	memo map[string]*multicore.Result
	req  int64
}

func clusterKey(cfg multicore.Config) string {
	c := cfg.WithDefaults()
	return fmt.Sprintf("%s/%d/%s/%d/%d/%d/%d/%g/%d/%t", c.Workload.Name(), c.Cores,
		catalog.NormalizeBackend(c.Backend), c.Variant, c.MCEntries, c.CallsPerCore,
		c.EpochCycles, c.RemoteFreeProb, c.Seed, c.Serialize)
}

func (ct *clusterTracer) hook(parent int64) func(multicore.Config) *multicore.Result {
	return func(cfg multicore.Config) *multicore.Result {
		key := clusterKey(cfg)
		ct.mu.Lock()
		r, hit := ct.memo[key]
		ct.req++
		req := ct.req
		ct.mu.Unlock()
		if hit {
			return r
		}
		r = ct.run(cfg, parent, req)
		ct.mu.Lock()
		if ct.memo == nil {
			ct.memo = map[string]*multicore.Result{}
		}
		ct.memo[key] = r
		ct.mu.Unlock()
		return r
	}
}

func (ct *clusterTracer) run(cfg multicore.Config, parent, req int64) *multicore.Result {
	a0 := heapAllocBytes()
	t0 := time.Now()
	eng := multicore.New(cfg)
	t1 := time.Now()
	a1 := heapAllocBytes()
	res := eng.Run()
	t2 := time.Now()
	ct.tr.record("multicore.New", parent, req, t0, t1)
	ct.tr.record("Engine.Run", parent, req, t1, t2)

	ct.mu.Lock()
	defer ct.mu.Unlock()
	acc := ct.acc
	acc.cells++
	acc.newTime += t1.Sub(t0)
	acc.newAlloc += a1 - a0
	acc.runTime += t2.Sub(t1)
	acc.calls += res.MallocCalls + res.FreeCalls
	if catalog.NormalizeBackend(cfg.Backend) == catalog.BackendLockFree {
		acc.lockfreeRun += t2.Sub(t1)
	}
	if cfg.Variant == multicore.Offload {
		acc.offloadRun += t2.Sub(t1)
	}
	if res.MC != nil {
		addMC(&acc.mc, res.MC)
	}
	return res
}
