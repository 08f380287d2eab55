package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"mallacc/internal/harness"
	"mallacc/internal/multicore"
	"mallacc/internal/simsvc"
	"mallacc/internal/workload"
)

// serveConfig shapes serve-mix: a closed loop of two clients, one straight
// to the node and one through the coordinator, drawing from one seeded
// request stream of hits on a warmed set and unique-seed misses. The
// README says which of these numbers come from the repository's own
// clients and which are assumptions.
type serveConfig struct {
	// ubenchCalls is the budget of the sweep-grid jobs (the grid the
	// repository's fleet scripts use).
	ubenchCalls int
	// clusterCores and clusterCalls shape the small cluster jobs, whose
	// latency is dominated by engine construction.
	clusterCores, clusterCalls int
	// hitSeeds is how many seeds of the sweep grid the hit set holds.
	hitSeeds int
	// round is how many operations each client completes per round;
	// wall_s is the median round time.
	round int
	// missPct of the stream are misses.
	missPct uint64
	// sample is how many misses of each kind the traced run replays
	// through the layers.
	sample int
}

// defaultServe follows the fleet scripts where they say something: their
// grid at 8000 calls and two seeds, two parallel clients, and every
// computed job submitted once more, so half the stream hits.
var defaultServe = serveConfig{
	ubenchCalls: 8000, clusterCores: 4, clusterCalls: 1200,
	hitSeeds: 2, round: 40, missPct: 50, sample: 4,
}

var (
	sweepWorkloads  = []string{"ubench.gauss", "ubench.tp_small"}
	sweepVariants   = []string{"baseline", "mallacc"}
	clusterWorkload = "xapian.abstracts"
)

// seedBase spreads benchmark seeds apart so each seed's hit set and miss
// seeds are its own; stream position i misses with seed base+missOffset+i.
func seedBase(seed uint64) uint64 { return 1 + seed%1_000_000*100_000 }

const missOffset = 1000

func (c serveConfig) sweepSpec(combo int, seed uint64) simsvc.JobSpec {
	return simsvc.JobSpec{
		Kind: simsvc.KindRun, Workload: sweepWorkloads[combo/2], Variant: sweepVariants[combo%2],
		Calls: c.ubenchCalls, Seed: seed,
	}
}

func (c serveConfig) clusterSpec(variant int, seed uint64) simsvc.JobSpec {
	return simsvc.JobSpec{
		Kind: simsvc.KindCluster, Workload: clusterWorkload, Variant: sweepVariants[variant],
		Cores: c.clusterCores, Calls: c.clusterCalls, Seed: seed,
	}
}

// hitSet is the warmed set: the sweep grid at hitSeeds seeds plus the
// cluster jobs at the first.
func (c serveConfig) hitSet(seed uint64) []simsvc.JobSpec {
	base := seedBase(seed)
	var specs []simsvc.JobSpec
	for k := 0; k < c.hitSeeds; k++ {
		for combo := 0; combo < 4; combo++ {
			specs = append(specs, c.sweepSpec(combo, base+uint64(k)))
		}
	}
	for v := range sweepVariants {
		specs = append(specs, c.clusterSpec(v, base))
	}
	return specs
}

// mix is splitmix64's finalizer: a well-spread hash of x.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// op is the stream's operation at position i: a hit-set spec, or a miss
// with a seed no other position uses, drawn evenly from the four
// sweep-grid points and the two cluster points.
func (c serveConfig) op(seed uint64, i int, hits []simsvc.JobSpec) (simsvc.JobSpec, bool) {
	h := mix(mix(seed) ^ uint64(i))
	if h%100 >= c.missPct {
		return hits[(h>>8)%uint64(len(hits))], true
	}
	ms := seedBase(seed) + missOffset + uint64(i)
	const sweepPoints = 4
	p := int((h >> 8) % (sweepPoints + 2))
	if p < sweepPoints {
		return c.sweepSpec(p, ms), false
	}
	return c.clusterSpec(p-sweepPoints, ms), false
}

// keyedDigest is a reply's SHA-256, kept for a check after the loop. The
// bytes are not kept, so the benchmark's own bookkeeping does not grow the
// process's resident memory across the run.
type keyedDigest struct {
	key    string
	digest [sha256.Size]byte
}

// serveRun is one serve-mix loop over a started stack.
type serveRun struct {
	cfg     serveConfig
	seed    uint64
	st      *stack
	clients [2]*client
	hits    []simsvc.JobSpec
	ref     refBytes // warm replies per key
	ck      *checks

	mu          sync.Mutex
	hit, miss   [2][]float64 // per client, milliseconds
	cycles      uint64
	ops         int
	coordMisses []keyedDigest
}

func newServeRun(b *bench, cfg serveConfig, st *stack) *serveRun {
	return &serveRun{
		cfg: cfg, seed: b.seed, st: st, ck: &b.ck, hits: cfg.hitSet(b.seed),
		clients: [2]*client{newClient(st.node.url), newClient(st.coordSrv.url)},
	}
}

func (r *serveRun) close() {
	for _, c := range r.clients {
		c.close()
	}
}

// warm simulates the hit set through the node, both clients at once, and
// keeps each reply as the reference its later hits must match.
func (r *serveRun) warm() {
	parallel(2, func(c int) {
		for i := c; i < len(r.hits); i += 2 {
			o, err := r.clients[0].do(specBody(r.hits[i]), nil, 0)
			if err = jobOK(o, err); err == nil {
				err = r.ref.check("warm reply", o.doc.Key, o.report)
			}
			r.ck.op(err)
		}
	})
}

// round has both clients complete cfg.round operations from the stream
// (client c takes positions congruent to c mod 2) and returns the time
// until both are done.
func (r *serveRun) round(k int, tr *tracer) time.Duration {
	start := time.Now()
	parallel(2, func(c int) {
		for j := 0; j < r.cfg.round; j++ {
			i := 2*(k*r.cfg.round+j) + c
			spec, isHit := r.cfg.op(r.seed, i, r.hits)
			o, err := r.clients[c].do(specBody(spec), tr, int64(i)+1)
			r.ck.op(r.checkOp(c, isHit, o, err))
		}
	})
	return time.Since(start)
}

func (r *serveRun) checkOp(c int, isHit bool, o outcome, err error) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.ops++
	if err = jobOK(o, err); err != nil {
		return err
	}
	if isHit {
		r.hit[c] = append(r.hit[c], ms(o.latency))
		if !o.doc.Cached {
			return fmt.Errorf("hit-set job %.12s was not served from cache", o.doc.Key)
		}
		want, ok := r.ref.get(o.doc.Key)
		if !ok {
			return fmt.Errorf("hit for key %.12s outside the warmed set", o.doc.Key)
		}
		return sameBytes([]string{"node hit", "coordinator hit"}[c], o.doc.Key, o.report, want)
	}
	r.miss[c] = append(r.miss[c], ms(o.latency))
	r.cycles += o.cycles
	if o.doc.Cached {
		return fmt.Errorf("unique-seed job %.12s was served from cache", o.doc.Key)
	}
	if c == 1 {
		r.coordMisses = append(r.coordMisses, keyedDigest{o.doc.Key, sha256.Sum256(o.report)})
	}
	return nil
}

// checkCoordMisses compares every reply the coordinator relayed for a miss
// with the node's own stored report for that key.
func (r *serveRun) checkCoordMisses() {
	for _, m := range r.coordMisses {
		stored, ok := r.st.svc.Cache().Get(m.key)
		var err error
		if !ok {
			err = fmt.Errorf("node holds no report for coordinator miss %.12s", m.key)
		} else {
			var buf bytes.Buffer
			if err = json.Compact(&buf, stored); err == nil && sha256.Sum256(buf.Bytes()) != m.digest {
				err = fmt.Errorf("coordinator reply for key %.12s differs from the node's stored report", m.key)
			}
		}
		r.ck.op(err)
	}
	r.coordMisses = nil
}

// checkServed compares a report computed in-process for spec with the one
// the node stored when the loop ran spec as a miss; a spec the loop did
// not reach has nothing to compare.
func (r *serveRun) checkServed(spec simsvc.JobSpec, rep *harness.Report) error {
	c, err := spec.Canonicalize()
	if err != nil {
		return err
	}
	stored, ok := r.st.svc.Cache().Get(c.Key())
	if !ok {
		return nil
	}
	got, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	return sameBytes("in-process report", c.Key(), got, stored)
}

// rounds runs rounds until the budget would be overrun (at least
// minRounds) and returns each round's wall time in seconds. The sampler is
// marked after every round.
func (r *serveRun) rounds(seconds float64, rss *rssSampler) []float64 {
	const minRounds = 3
	var walls []float64
	start := time.Now()
	for k := 0; k < minRounds || time.Since(start).Seconds()+median(walls) <= seconds; k++ {
		walls = append(walls, r.round(k, nil).Seconds())
		rss.mark()
	}
	return walls
}

func startServe(b *bench, cfg serveConfig) (*stack, *serveRun, []float64, error) {
	var run *serveRun
	st, setup, err := setupStacks(b, func(dir string) (*stack, error) {
		st, err := startStack(dir, 0)
		if err != nil {
			return nil, err
		}
		if run != nil {
			run.close()
		}
		run = newServeRun(b, cfg, st)
		run.warm()
		return st, nil
	})
	return st, run, setup, err
}

// runServe is serve-mix untraced.
func runServe(b *bench, cfg serveConfig) error {
	st, r, setup, err := startServe(b, cfg)
	if err != nil {
		return err
	}
	defer st.close()
	defer r.close()
	rss := startRSSSampler(rssEvery)
	walls := r.rounds(b.seconds, rss)
	b.set("peak_rss_mb", median(rss.close()))
	r.checkCoordMisses()
	total := 0.0
	for _, w := range walls {
		total += w
	}
	b.set("setup_s", median(setup))
	b.set("wall_s", median(walls))
	b.notes["rounds"] = len(walls)
	b.set("jobs_per_s", float64(r.ops)/total)
	b.set("sim_cycles_per_s", float64(r.cycles)/total)
	b.latencies(r.hit, r.miss, 90, 90)
	return nil
}

// traceServe is serve-mix traced: rounds alternate between untraced and
// traced with a span per request and per call, so host drift falls on both
// alike; then the simsvc layer in-process and a sample of the stream's
// misses through the simulation layers. The Go runtime and hit figures
// come from the untraced rounds.
func traceServe(b *bench, cfg serveConfig) error {
	st, err := startStack(b.work+"/cache", 0)
	if err != nil {
		return err
	}
	defer st.close()
	r := newServeRun(b, cfg, st)
	defer r.close()
	r.warm()

	const minRounds = 4
	var untraced, traced []float64
	var goU goStats
	var hitU [2][]float64
	start := time.Now()
	for k := 0; k < minRounds || time.Since(start).Seconds()+median(untraced) <= b.seconds; k++ {
		if k%2 == 1 {
			traced = append(traced, r.round(k, b.tracer).Seconds())
			continue
		}
		n0 := [2]int{len(r.hit[0]), len(r.hit[1])}
		g0 := readGoStats()
		untraced = append(untraced, r.round(k, nil).Seconds())
		goU = goU.add(readGoStats().sub(g0))
		for c := range hitU {
			hitU[c] = append(hitU[c], r.hit[c][n0[c]:]...)
		}
	}
	b.goLayers(goU)
	b.set("trace.overhead_ratio", median(traced)/median(untraced))
	b.serviceLayers(st.svc, r.hits, median(hitU[0]), median(hitU[1]))
	r.checkCoordMisses()

	var cl coreLayers
	ct := &clusterTracer{tr: b.tracer, acc: &clusterLayers{}}
	var addrBuf []uint64
	root := b.tracer.reserve()
	start = time.Now()
	runs, clusters := 0, 0
	for i := 0; runs < cfg.sample || clusters < cfg.sample; i++ {
		spec, isHit := cfg.op(b.seed, i, r.hits)
		if isHit {
			continue
		}
		w, ok := workload.ByName(spec.Workload)
		if !ok {
			return fmt.Errorf("serve-mix: unknown workload %q", spec.Workload)
		}
		switch {
		case spec.Kind == simsvc.KindRun && runs < cfg.sample:
			runs++
			v, _ := harness.VariantByName(spec.Variant)
			opt := harness.Options{Workload: w, Variant: v, MCEntries: 32, Calls: spec.Calls, Seed: spec.Seed}
			res := tracedRun(opt, b.tracer, root, int64(i)+1, &cl)
			b.ck.op(checkReplica(opt, res, b.tracer, root, int64(i)+1, &cl, &addrBuf))
			rep := harness.ReportForRun(res, false)
			s := time.Now()
			_, err := rep.Render("json")
			cl.render += time.Since(s)
			if err == nil {
				err = r.checkServed(spec, rep)
			}
			b.ck.op(err)
		case spec.Kind == simsvc.KindCluster && clusters < cfg.sample:
			clusters++
			variant := multicore.Baseline
			if spec.Variant == "mallacc" {
				variant = multicore.Mallacc
			}
			res := ct.run(multicore.Config{
				Cores: spec.Cores, Variant: variant, MCEntries: 32, Workload: w,
				CallsPerCore: spec.Calls / spec.Cores, Seed: spec.Seed,
			}, root, int64(i)+1)
			b.ck.op(r.checkServed(spec, harness.ReportForCluster(res, false)))
		}
	}
	b.tracer.finish(root, "layer-sample", 0, 0, start, time.Now())
	b.simLayers(&cl, ct.acc)
	return nil
}
