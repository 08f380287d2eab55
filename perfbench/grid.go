package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"mallacc/internal/harness"
	"mallacc/internal/multicore"
	"mallacc/internal/simsvc"
)

// gridConfig is a simulation workload: experiment jobs submitted to the
// node as mallacc-bench submits them, one repetition after another, each
// on a fresh service so that nothing is served from an earlier repetition.
// The node runs one job at a time (gridWorkers) from a FIFO queue, and the
// jobs are posted one after another in spec order, so they run in that
// order: scale and designspace share cells, and with two workers which of
// them simulated a shared cell was a race that spread repetition times by
// 15 %.
type gridConfig struct {
	name string
	exps []string
	// calls and cores are the jobs' call budget and core cap (the
	// mallacc-bench defaults unless a test shrinks them).
	calls, cores int
	// hits is how many cached resubmissions each client makes after a
	// repetition: one client straight to the node, one through the
	// coordinator.
	hits int
}

var (
	paperGrid   = gridConfig{name: "paper-grid", exps: []string{"fig13"}, calls: pinnedCalls, cores: 16, hits: 150}
	clusterGrid = gridConfig{name: "cluster-grid", exps: []string{"scale", "designspace"}, calls: pinnedCalls, cores: 16, hits: 150}
)

const gridWorkers = 1

func (g gridConfig) specs(seed uint64) []simsvc.JobSpec {
	specs := make([]simsvc.JobSpec, len(g.exps))
	for i, id := range g.exps {
		specs[i] = simsvc.JobSpec{Kind: simsvc.KindExperiment, Experiment: id, Calls: g.calls, Seeds: 6, Seed: seed, Cores: g.cores}
	}
	return specs
}

// gridRun holds what the repetitions of a grid workload measured.
type gridRun struct {
	clients       [2]*client // straight to the node, through the coordinator
	specs         []simsvc.JobSpec
	bodies        [][]byte
	keys          []string
	ref           refBytes
	walls, rates  []float64
	miss, hit     [2][]float64 // per client, milliseconds
	hitGCs        [2]uint64    // GC cycles during each client's hits
	jobs          int
	timed         time.Duration
	pinnedChecked bool
	pinnedApplies bool
	root          string
	ck            *checks
}

func newGridRun(b *bench, g gridConfig, st *stack) (*gridRun, error) {
	r := &gridRun{specs: g.specs(b.simSeed()), root: b.root, ck: &b.ck}
	r.clients = [2]*client{newClient(st.node.url), newClient(st.coordSrv.url)}
	r.pinnedApplies = b.simSeed() == pinnedSeed && g.calls == pinnedCalls && g.cores == 16
	for _, s := range r.specs {
		c, err := s.Canonicalize()
		if err != nil {
			return nil, fmt.Errorf("%s spec: %w", g.name, err)
		}
		r.bodies = append(r.bodies, specBody(s))
		r.keys = append(r.keys, c.Key())
	}
	return r, nil
}

func (r *gridRun) close() {
	for _, c := range r.clients {
		c.close()
	}
}

// rep submits every experiment job through client via (0 node, 1
// coordinator) in spec order and waits for all of them; it returns the
// wall time.
func (r *gridRun) rep(via int) time.Duration {
	start := time.Now()
	outs, errs := r.clients[via].doInOrder(r.bodies)
	wall := time.Since(start)
	var cycles uint64
	for i, o := range outs {
		err := jobOK(o, errs[i])
		if err == nil && o.doc.Cached {
			err = fmt.Errorf("%s: a fresh service answered from cache", r.specs[i].Experiment)
		}
		if err == nil {
			err = r.ref.check([]string{"node reply", "coordinator reply"}[via], r.keys[i], o.report)
		}
		if err == nil && r.pinnedApplies && !r.pinnedChecked {
			err = checkPinned(r.root, r.specs[i].Experiment, o.report)
		}
		r.ck.op(err)
		cycles += o.cycles
		r.miss[via] = append(r.miss[via], ms(o.latency))
	}
	r.pinnedChecked = true
	r.walls = append(r.walls, wall.Seconds())
	r.rates = append(r.rates, float64(cycles)/wall.Seconds())
	r.jobs += len(r.bodies)
	r.timed += wall
	return wall
}

// hitPhase has each client in turn resubmit the first experiment's
// finished job n times; every reply must be a cache hit with the bytes of
// the original reply. One job keeps the latencies one distribution: reports
// of different sizes would split it in two and put the median in the gap.
// The collections the hits cause are counted. No GC is forced first: a
// forced GC shrinks the heap goal to the small live heap, and the hits
// then collect every ~15 requests, which puts the knee of their
// distribution at p90.
func (r *gridRun) hitPhase(n int) {
	const i = 0
	for via := range r.clients {
		g0 := readGoStats()
		start := time.Now()
		for h := 0; h < n; h++ {
			o, err := r.clients[via].do(r.bodies[i], nil, 0)
			err = jobOK(o, err)
			if err == nil && !o.doc.Cached {
				err = fmt.Errorf("resubmitted %s was not served from cache", r.specs[i].Experiment)
			}
			if err == nil {
				err = r.ref.check([]string{"node hit", "coordinator hit"}[via], r.keys[i], o.report)
			}
			r.ck.op(err)
			r.hit[via] = append(r.hit[via], ms(o.latency))
		}
		r.timed += time.Since(start)
		r.hitGCs[via] += readGoStats().sub(g0).gcCycles
	}
	r.jobs += 2 * n
}

// warmCalls and warmCores shrink a grid's experiments for the set-up
// warm-up.
const warmCalls, warmCores = 300, 2

// warmGrid runs the grid's experiments once at a tiny budget through the
// node, so the first timed repetition does not pay the simulator's and the
// service's lazy initialisation; the set-up time includes it.
func warmGrid(st *stack, g gridConfig, seed uint64) error {
	g.calls, g.cores = warmCalls, warmCores
	c := newClient(st.node.url)
	defer c.close()
	var bodies [][]byte
	for _, s := range g.specs(seed) {
		bodies = append(bodies, specBody(s))
	}
	outs, errs := c.doInOrder(bodies)
	for i, o := range outs {
		errs[i] = jobOK(o, errs[i])
	}
	return errors.Join(errs...)
}

// runGrid is the untraced run of a grid workload: repetitions alternate
// between the node and the coordinator until the time budget would be
// overrun, at least two so both paths are measured.
func runGrid(b *bench, g gridConfig) error {
	st, setup, err := setupStacks(b, func(string) (*stack, error) {
		st, err := startStack("", gridWorkers)
		if err != nil {
			return nil, err
		}
		if err := warmGrid(st, g, b.simSeed()); err != nil {
			st.close()
			return nil, err
		}
		return st, nil
	})
	if err != nil {
		return err
	}
	defer st.close()
	r, err := newGridRun(b, g, st)
	if err != nil {
		return err
	}
	defer r.close()

	rss := startRSSSampler(rssEvery)
	start := time.Now()
	for rep := 0; rep < 2 || time.Since(start).Seconds()+median(r.walls) <= b.seconds; rep++ {
		if err := st.freshService(); err != nil {
			rss.close()
			return err
		}
		r.rep(rep % 2)
		r.hitPhase(g.hits)
		rss.mark()
	}
	b.set("peak_rss_mb", median(rss.close()))

	b.set("setup_s", median(setup))
	b.set("wall_s", median(r.walls))
	b.set("sim_cycles_per_s", median(r.rates))
	b.set("jobs_per_s", float64(r.jobs)/r.timed.Seconds())
	b.notes["wall_s"] = r.walls
	b.notes["hit_phase_gc_cycles"] = r.hitGCs
	b.latencies(r.hit, r.miss, 90, 50)
	return nil
}

// traceGrid is the traced run of a grid workload: one untraced repetition
// through the node; the same experiments run in-process one after another
// with spans around every layer call; then the single-core cells replayed
// through the replica. For trace.overhead_ratio each simulated cell also
// runs once untraced just before its traced run, so both sides take the
// same path and see the same host load; the untraced copy must give the
// same simulated totals.
func traceGrid(b *bench, g gridConfig) error {
	st, err := startStack("", gridWorkers)
	if err != nil {
		return err
	}
	defer st.close()
	if err := warmGrid(st, g, b.simSeed()); err != nil {
		return err
	}
	if err := st.freshService(); err != nil {
		return err
	}
	r, err := newGridRun(b, g, st)
	if err != nil {
		return err
	}
	defer r.close()

	g0 := readGoStats()
	r.rep(0)
	b.goLayers(readGoStats().sub(g0))
	r.hitPhase(g.hits)
	b.serviceLayers(st.svc, r.specs, median(r.hit[0]), median(r.hit[1]))

	tr := b.tracer
	var cl coreLayers
	ct := &clusterTracer{tr: tr, acc: &clusterLayers{}}
	type cell struct {
		opt harness.Options
		res *harness.Result
		req int64
	}
	var cells []cell
	var untraced, traced time.Duration
	ran := map[string]bool{} // cluster configs already run: the hook memoizes them
	start := time.Now()
	root := tr.reserve()
	reps := make([]*harness.Report, len(r.specs))
	for i := range r.specs {
		exp, _ := harness.ByID(r.specs[i].Experiment)
		id := tr.reserve()
		cluster := ct.hook(id)
		s := time.Now()
		reps[i] = exp.Run(harness.ExpOptions{
			Calls: g.calls, Seeds: 6, Seed: b.simSeed(), Cores: g.cores,
			Submit: func(opt harness.Options) *harness.Result {
				t0 := time.Now()
				plain := harness.Run(opt)
				t1 := time.Now()
				req := tr.reserve()
				res := tracedRun(opt, tr, id, req, &cl)
				traced += time.Since(t1)
				untraced += t1.Sub(t0)
				tr.record("untraced.harness.Run", id, req, t0, t1)
				r.ck.op(sameTotals("untraced harness.Run", totalsOf(plain), totalsOf(res)))
				cells = append(cells, cell{opt, res, req})
				return res
			},
			SubmitCluster: func(cfg multicore.Config) *multicore.Result {
				key := clusterKey(cfg)
				var plain *multicore.Result
				t0 := time.Now()
				if !ran[key] {
					plain = multicore.New(cfg).Run()
				}
				t1 := time.Now()
				res := cluster(cfg)
				traced += time.Since(t1)
				if !ran[key] {
					ran[key] = true
					untraced += t1.Sub(t0)
					tr.record("untraced.multicore", id, 0, t0, t1)
					r.ck.op(sameTotals("untraced engine", clusterTotals(plain), clusterTotals(res)))
				}
				return res
			},
		})
		tr.finish(id, "experiment."+r.specs[i].Experiment, root, 0, s, time.Now())
	}
	tr.finish(root, "workload."+g.name, 0, 0, start, time.Now())
	for i, rep := range reps {
		s := time.Now()
		_, err := rep.Render("json")
		cl.render += time.Since(s)
		if err == nil {
			var out []byte
			if out, err = json.Marshal(rep); err == nil {
				err = r.ref.check("traced in-process report", r.keys[i], out)
			}
		}
		r.ck.op(err)
	}
	b.set("trace.overhead_ratio", traced.Seconds()/untraced.Seconds())

	var addrBuf []uint64
	for _, c := range cells {
		r.ck.op(checkReplica(c.opt, c.res, tr, root, c.req, &cl, &addrBuf))
	}
	b.simLayers(&cl, ct.acc)
	return nil
}

// clusterTotals are the simulated figures two runs of one engine config
// must share.
func clusterTotals(r *multicore.Result) totals {
	return totals{r.TotalCycles, r.MallocCycles, r.FreeCycles}
}

func sameTotals(what string, got, want totals) error {
	if got != want {
		return fmt.Errorf("%s: simulated totals %+v, want %+v", what, got, want)
	}
	return nil
}
