package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"mallacc/internal/simsvc"
)

// setupRuns is how many times a run sets its stack up; setup_s is the
// median, and the last stack is the one measured.
const setupRuns = 9

// setupStacks starts the workload's stack setupRuns times, each in a fresh
// directory, until both listeners answer a health check; it keeps the last
// stack and returns the set-up times in seconds.
func setupStacks(b *bench, start func(dir string) (*stack, error)) (*stack, []float64, error) {
	var times []float64
	var st *stack
	for i := 0; i < setupRuns; i++ {
		if st != nil {
			st.close()
			os.RemoveAll(st.cacheDir)
		}
		dir := filepath.Join(b.work, fmt.Sprintf("setup-%d", i))
		t := time.Now()
		var err error
		if st, err = start(dir); err == nil {
			err = st.ready()
		}
		if err != nil {
			return nil, nil, err
		}
		times = append(times, time.Since(t).Seconds())
	}
	return st, times, nil
}

// goLayers sets the Go runtime metrics from a delta across the workload.
func (b *bench) goLayers(d goStats) {
	b.set("go.gc_pause_ms", float64(d.pauseNs)/1e6)
	b.set("go.gc_cycles", float64(d.gcCycles))
	b.set("go.alloc_mb", float64(d.allocBytes)/(1<<20))
}

// serviceLayers measures the simsvc layer in-process on the workload's own
// specs, reads the node's queue and run histograms, and derives the HTTP
// and fleet overheads from the hit medians (milliseconds) seen by the
// clients. Every spec must already be cached on svc.
func (b *bench) serviceLayers(svc *simsvc.Service, specs []simsvc.JobSpec, hitNode, hitCoord float64) {
	snap := svc.Registry().Snapshot()
	for name, hist := range map[string]string{"simsvc.queue_ms": "simsvc.job.queue_us", "simsvc.run_ms": "simsvc.job.run_us"} {
		if m, ok := snap.Get(hist); ok && m.Count > 0 {
			b.set(name, m.P50/1000)
		} else {
			b.unmeasured(name, "the node ran no job")
		}
	}
	hits, misses := snap.Value("simsvc.cache.hits"), snap.Value("simsvc.cache.misses")
	b.set("simsvc.cache_hit_ratio", hits/max(hits+misses, 1))

	const rounds = 200
	var decode, key, submit []float64
	for i := 0; i < rounds; i++ {
		s := specs[i%len(specs)]
		body := specBody(s)
		t := time.Now()
		d, err := simsvc.DecodeSpec(body)
		decode = append(decode, float64(time.Since(t).Nanoseconds())/1e3)
		if !b.ck.op(err) {
			continue
		}
		t = time.Now()
		c, err := d.Canonicalize()
		if err == nil {
			_ = c.Key()
		}
		key = append(key, float64(time.Since(t).Nanoseconds())/1e3)
		t = time.Now()
		st, err := svc.Submit(s)
		submit = append(submit, float64(time.Since(t).Nanoseconds())/1e3)
		if err == nil && !st.Cached {
			err = fmt.Errorf("in-process resubmission of a finished spec was not a cache hit")
		}
		b.ck.op(err)
	}
	b.set("simsvc.decode_us", median(decode))
	b.set("simsvc.key_us", median(key))
	b.set("simsvc.hit_submit_us", median(submit))
	b.set("http.hit_overhead_ms", hitNode-median(submit)/1000)
	b.set("fleet.proxy_overhead_ms", hitCoord-hitNode)
}

// coreLayers sets the single-core layer metrics from the accumulated
// boundaries, or marks them unmeasured when the workload ran no cell.
func (b *bench) coreLayers(l *coreLayers) {
	names := []string{
		"workload.gen_s", "harness.setup_s", "harness.finish_s", "harness.render_s",
		"tcmalloc.s", "tcmalloc.ns_per_call", "tcmalloc.fast_hit_ratio", "uop.per_call",
		"cpu.runtrace_s", "cpu.ns_per_uop", "cpu.uops", "cpu.ipc",
		"cachesim.app_s", "cachesim.ns_per_access", "cachesim.accesses",
		"cachesim.l1d.miss_ratio", "cachesim.l2.miss_ratio", "cachesim.l3.miss_ratio", "cachesim.dtlb.miss_ratio",
	}
	if l.cells == 0 {
		for _, n := range names {
			b.unmeasured(n, "the workload runs no single-core harness.Run cell")
		}
	} else {
		b.set("workload.gen_s", l.workloadGen.Seconds())
		b.set("harness.setup_s", l.harnessSetup.Seconds())
		b.set("harness.finish_s", l.harnessFinish.Seconds())
		b.set("harness.render_s", l.render.Seconds())
		b.set("tcmalloc.s", l.heap.Seconds())
		b.set("tcmalloc.ns_per_call", perUnit(l.heap, l.calls))
		b.set("tcmalloc.fast_hit_ratio", ratio(l.fastHits, l.mallocCalls))
		b.set("uop.per_call", ratio(l.emitted, l.calls))
		b.set("cpu.runtrace_s", l.runTrace.Seconds())
		b.set("cpu.ns_per_uop", perUnit(l.runTrace, l.cpuUops))
		b.set("cpu.uops", float64(l.cpuUops))
		b.set("cpu.ipc", ratio(l.cpuUops, l.cpuCycles))
		b.set("cachesim.app_s", l.app.Seconds())
		b.set("cachesim.accesses", float64(l.accesses))
		for i, lv := range cacheLevels {
			b.set("cachesim."+lv+".miss_ratio", ratio(l.caches[i].Misses, l.caches[i].Hits+l.caches[i].Misses))
		}
		if l.replayMismatch > 0 {
			b.unmeasured("cachesim.ns_per_access", fmt.Sprintf("address replay did not reproduce the run's counters on %d cell(s)", l.replayMismatch))
		} else {
			b.set("cachesim.ns_per_access", perUnit(l.replay, l.accesses))
		}
	}
}

// simLayers sets every simulation-layer metric: single-core cells, engines,
// and the malloc-cache ratios over the Mallacc cells of both.
func (b *bench) simLayers(l *coreLayers, c *clusterLayers) {
	b.coreLayers(l)
	b.clusterLayers(c)
	mc := l.mc
	addMC(&mc, &c.mc)
	if mc.LookupHits+mc.LookupMisses == 0 {
		b.unmeasured("core.lookup_hit_ratio", "no Mallacc cell ran")
		b.unmeasured("core.pop_hit_ratio", "no Mallacc cell ran")
		return
	}
	b.set("core.lookup_hit_ratio", ratio(mc.LookupHits, mc.LookupHits+mc.LookupMisses))
	b.set("core.pop_hit_ratio", ratio(mc.PopHits, mc.PopHits+mc.PopMisses))
}

// clusterLayers sets the multicore metrics; when the workload built no
// engine they stay unmeasured.
func (b *bench) clusterLayers(c *clusterLayers) {
	names := []string{"multicore.new_s", "multicore.new_alloc_mb", "multicore.run_s", "multicore.ns_per_call", "lockfree.run_s", "offload.run_s"}
	if c.cells == 0 {
		for _, n := range names {
			b.unmeasured(n, "the workload builds no multicore engine")
		}
		return
	}
	b.set("multicore.new_s", c.newTime.Seconds())
	b.set("multicore.new_alloc_mb", float64(c.newAlloc)/(1<<20))
	b.set("multicore.run_s", c.runTime.Seconds())
	b.set("multicore.ns_per_call", perUnit(c.runTime, c.calls))
	b.set("lockfree.run_s", c.lockfreeRun.Seconds())
	b.set("offload.run_s", c.offloadRun.Seconds())
}

func ratio(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

func perUnit(d time.Duration, n uint64) float64 {
	if n == 0 {
		return 0
	}
	return float64(d.Nanoseconds()) / float64(n)
}
