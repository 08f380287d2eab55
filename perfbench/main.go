// Command perfbench is the repository's benchmark. One invocation runs one
// workload for a fixed time from a single process, checks the program's
// outputs, and prints one JSON result line:
//
//	perfbench --workload paper-grid --seed 1 --seconds 35 --trace 0
//
// With --trace 0 the line holds the end-to-end metrics; with --trace 1 it
// holds the per-layer metrics of a separate traced run, timed from this
// program's own code around calls into each layer's public functions.
// A fuller record of every run (host fingerprint, tail percentiles and
// sample counts, unmeasured layers, spans) is written under
// .bench_build/perfbench/results/ in the directory it runs from. run.sh
// builds it from source and is the entry point; README.md documents the
// workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// metricDef names a metric and its unit.
type metricDef struct{ name, unit string }

// e2eMetrics are the end-to-end metrics every workload reports untraced.
var e2eMetrics = []metricDef{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"sim_cycles_per_s", "cycles/s"},
	{"peak_rss_mb", "MB"},
	{"jobs_per_s", "1/s"},
	{"hit_p50_ms", "ms"},
	{"hit_tail_ms", "ms"},
	{"miss_p50_ms", "ms"},
	{"miss_tail_ms", "ms"},
	{"coord_hit_p50_ms", "ms"},
	{"coord_miss_p50_ms", "ms"},
}

// layerMetrics are the per-layer metrics of a traced run.
var layerMetrics = []metricDef{
	{"workload.gen_s", "s"},
	{"harness.setup_s", "s"},
	{"harness.finish_s", "s"},
	{"harness.render_s", "s"},
	{"tcmalloc.s", "s"},
	{"tcmalloc.ns_per_call", "ns"},
	{"tcmalloc.fast_hit_ratio", "ratio"},
	{"uop.per_call", "uops"},
	{"cpu.runtrace_s", "s"},
	{"cpu.ns_per_uop", "ns"},
	{"cpu.uops", "count"},
	{"cpu.ipc", "uops/cycle"},
	{"cachesim.app_s", "s"},
	{"cachesim.ns_per_access", "ns"},
	{"cachesim.accesses", "count"},
	{"cachesim.l1d.miss_ratio", "ratio"},
	{"cachesim.l2.miss_ratio", "ratio"},
	{"cachesim.l3.miss_ratio", "ratio"},
	{"cachesim.dtlb.miss_ratio", "ratio"},
	{"core.lookup_hit_ratio", "ratio"},
	{"core.pop_hit_ratio", "ratio"},
	{"multicore.new_s", "s"},
	{"multicore.new_alloc_mb", "MB"},
	{"multicore.run_s", "s"},
	{"multicore.ns_per_call", "ns"},
	{"lockfree.run_s", "s"},
	{"offload.run_s", "s"},
	{"simsvc.decode_us", "us"},
	{"simsvc.key_us", "us"},
	{"simsvc.hit_submit_us", "us"},
	{"simsvc.queue_ms", "ms"},
	{"simsvc.run_ms", "ms"},
	{"simsvc.cache_hit_ratio", "ratio"},
	{"http.hit_overhead_ms", "ms"},
	{"fleet.proxy_overhead_ms", "ms"},
	{"go.gc_pause_ms", "ms"},
	{"go.gc_cycles", "count"},
	{"go.alloc_mb", "MB"},
	{"trace.overhead_ratio", "ratio"},
}

// workloads maps each workload name to its untraced and traced runs.
var workloads = map[string]struct{ run, trace func(*bench) error }{
	"paper-grid": {
		run:   func(b *bench) error { return runGrid(b, paperGrid) },
		trace: func(b *bench) error { return traceGrid(b, paperGrid) },
	},
	"cluster-grid": {
		run:   func(b *bench) error { return runGrid(b, clusterGrid) },
		trace: func(b *bench) error { return traceGrid(b, clusterGrid) },
	},
	"serve-mix": {
		run:   func(b *bench) error { return runServe(b, defaultServe) },
		trace: func(b *bench) error { return traceServe(b, defaultServe) },
	},
}

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// bench is one invocation's state.
type bench struct {
	root     string // checkout the benchmark runs in
	work     string // this run's work directory
	workload string
	seed     uint64
	seconds  float64
	traced   bool
	tracer   *tracer

	ck      checks
	metrics map[string]float64
	// notes records, per metric, how it was read (tail percentile and
	// sample count) or why it is unmeasured.
	notes map[string]any
}

func newBench(root, work, name string, seed uint64, seconds float64, traced bool) *bench {
	b := &bench{
		root: root, work: work, workload: name, seed: seed, seconds: seconds, traced: traced,
		metrics: map[string]float64{}, notes: map[string]any{},
	}
	if traced {
		b.tracer = newTracer()
	}
	return b
}

// simSeed is the simulation seed the workload's specs carry: the
// benchmark seed, with 0 taken as the service's default of 1.
func (b *bench) simSeed() uint64 { return max(b.seed, 1) }

func (b *bench) set(name string, v float64) { b.metrics[name] = v }

// unmeasured reports a per-layer metric as 0 with the reason recorded.
func (b *bench) unmeasured(name, why string) {
	b.metrics[name] = 0
	b.notes[name] = "unmeasured: " + why
}

// latencies sets the latency metrics from per-client samples in
// milliseconds: index 0 went straight to the node, 1 through the
// coordinator. hitCap and missCap cap the tail percentiles (see tailOf).
func (b *bench) latencies(hit, miss [2][]float64, hitCap, missCap float64) {
	b.set("hit_p50_ms", median(hit[0]))
	b.set("miss_p50_ms", median(miss[0]))
	b.set("coord_hit_p50_ms", median(hit[1]))
	b.set("coord_miss_p50_ms", median(miss[1]))
	ht, mt := tailOf(hit[0], hitCap), tailOf(miss[0], missCap)
	b.set("hit_tail_ms", ht.Value)
	b.set("miss_tail_ms", mt.Value)
	b.notes["hit_tail_ms"] = ht
	b.notes["miss_tail_ms"] = mt
	profile := map[string]map[string]float64{}
	for name, xs := range map[string][]float64{"hit": hit[0], "miss": miss[0], "coord_hit": hit[1], "coord_miss": miss[1]} {
		profile[name] = map[string]float64{"n": float64(len(xs))}
		for _, p := range []float64{50, 75, 90, 95, 99, 99.9} {
			profile[name][fmt.Sprintf("p%g", p)] = percentile(xs, p)
		}
	}
	b.notes["latency_profile_ms"] = profile
}

// result assembles the output line: every end-to-end metric untraced,
// every per-layer metric traced.
func (b *bench) result() (result, error) {
	defs := e2eMetrics
	if b.traced {
		defs = layerMetrics
	}
	res := result{Correct: b.ck.failed == 0, Attempted: b.ck.attempted, Failed: b.ck.failed, Metrics: map[string]value{}}
	for _, d := range defs {
		v, ok := b.metrics[d.name]
		if !ok {
			return res, fmt.Errorf("%s: metric %s was not measured", b.workload, d.name)
		}
		res.Metrics[d.name] = value{Value: v, Unit: d.unit}
	}
	if res.Attempted == 0 {
		return res, fmt.Errorf("%s: no operation was attempted", b.workload)
	}
	return res, nil
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: paper-grid, cluster-grid or serve-mix")
		seed    = flag.Uint64("seed", 1, "workload seed")
		seconds = flag.Float64("seconds", 35, "measurement time")
		trace   = flag.Int("trace", 0, "1 runs the traced per-layer measurement")
		root    = flag.String("root", ".", "checkout to run in (holds go.mod and results/metrics)")
	)
	flag.Parse()
	if err := run(*name, *seed, *seconds, *trace == 1, *root); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed uint64, seconds float64, traced bool, root string) error {
	w, ok := workloads[name]
	if !ok {
		return fmt.Errorf("unknown workload %q (want paper-grid, cluster-grid or serve-mix)", name)
	}
	root, err := filepath.Abs(root)
	if err != nil {
		return err
	}
	if _, err := os.Stat(filepath.Join(root, "results", "metrics")); err != nil {
		return fmt.Errorf("%s is not a checkout of the program: %w", root, err)
	}
	base := filepath.Join(root, ".bench_build", "perfbench")
	if err := os.MkdirAll(filepath.Join(base, "work"), 0o755); err != nil {
		return err
	}
	work, err := os.MkdirTemp(filepath.Join(base, "work"), name+"-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(work)
	b := newBench(root, work, name, seed, seconds, traced)
	fp := hostFingerprint(root, seed)
	start := time.Now()
	if traced {
		err = w.trace(b)
	} else {
		err = w.run(b)
	}
	if err != nil {
		return err
	}
	res, err := b.result()
	if err != nil {
		return err
	}

	record := map[string]any{
		"workload": name, "seed": seed, "seconds": seconds, "traced": traced,
		"elapsed_s": time.Since(start).Seconds(), "host": fp, "result": res,
		"error_rate": b.ck.errorRate(), "failures": b.ck.reasons, "notes": b.notes,
		"vm_hwm_mb": statusMB("VmHWM"),
	}
	if traced {
		spans := b.tracer.snapshot()
		self := map[string]float64{}
		for k, d := range selfTimes(spans) {
			self[k] = d.Seconds()
		}
		record["span_self_s"] = self
		record["spans"] = spans
	}
	if err := writeRecord(base, name, seed, traced, record); err != nil {
		return err
	}
	printSummary(b, res)
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// writeRecord stores the full record of a run under base/results.
func writeRecord(base, name string, seed uint64, traced bool, record map[string]any) error {
	b, err := json.MarshalIndent(record, "", "  ")
	if err != nil {
		return err
	}
	dir := filepath.Join(base, "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	file := fmt.Sprintf("%s-seed%d-trace%d-%s.json", name, seed, btoi(traced), time.Now().UTC().Format("20060102T150405.000"))
	return os.WriteFile(filepath.Join(dir, file), append(b, '\n'), 0o644)
}

func btoi(v bool) int {
	if v {
		return 1
	}
	return 0
}

// printSummary lists every metric by name with its unit on stderr.
func printSummary(b *bench, res result) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s seed=%d traced=%t: %d operations, %d failed (error_rate %.4f)\n",
		b.workload, b.seed, b.traced, res.Attempted, res.Failed, b.ck.errorRate())
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Fprintf(&sb, "  %-26s %14.6g %s", n, m.Value, m.Unit)
		if note, ok := b.notes[n]; ok {
			fmt.Fprintf(&sb, "  (%v)", note)
		}
		sb.WriteByte('\n')
	}
	for _, r := range b.ck.reasons {
		fmt.Fprintf(&sb, "  FAILED: %s\n", r)
	}
	os.Stderr.WriteString(sb.String())
}
