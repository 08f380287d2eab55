package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mallacc/internal/fleet"
	"mallacc/internal/progress"
	"mallacc/internal/simsvc"
)

// server is one loopback HTTP listener served from this process.
type server struct {
	url  string
	srv  *http.Server
	done chan struct{}
}

func serve(h http.Handler) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	s := &server{url: "http://" + ln.Addr().String(), srv: &http.Server{Handler: h}, done: make(chan struct{})}
	go func() {
		defer close(s.done)
		s.srv.Serve(ln)
	}()
	return s, nil
}

// close stops the listener, drops open connections (event streams
// included) and waits for the serve loop to return.
func (s *server) close() {
	s.srv.Close()
	<-s.done
}

// swapHandler lets a listener keep its address while the service behind
// it is replaced, so the coordinator's view of the node stays valid.
type swapHandler struct{ h atomic.Pointer[http.Handler] }

func (s *swapHandler) set(h http.Handler) { s.h.Store(&h) }

func (s *swapHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	(*s.h.Load()).ServeHTTP(w, r)
}

// stack is the served program: one simsvc node on a loopback listener and
// a fleet coordinator in front of it on another.
type stack struct {
	svc      *simsvc.Service
	cacheDir string
	workers  int
	node     *server
	swap     *swapHandler
	coord    *fleet.Coordinator
	coordSrv *server
}

// startStack brings up a node (with an on-disk cache when cacheDir is set
// and a pool of workers, 0 meaning GOMAXPROCS) and a coordinator whose
// only member is that node.
func startStack(cacheDir string, workers int) (*stack, error) {
	st := &stack{cacheDir: cacheDir, workers: workers, swap: &swapHandler{}}
	svc, err := simsvc.New(simsvc.Config{CacheDir: cacheDir, Workers: workers})
	if err != nil {
		return nil, fmt.Errorf("start node service: %w", err)
	}
	st.svc = svc
	st.swap.set(svc.Handler())
	if st.node, err = serve(st.swap); err != nil {
		st.close()
		return nil, err
	}
	st.coord, err = fleet.NewCoordinator(fleet.CoordinatorConfig{
		Nodes: []fleet.Node{{Name: "n0", URL: st.node.url}},
	})
	if err != nil {
		st.close()
		return nil, fmt.Errorf("start coordinator: %w", err)
	}
	if st.coordSrv, err = serve(st.coord.Handler()); err != nil {
		st.close()
		return nil, err
	}
	return st, nil
}

// freshService replaces the node's service with a new, empty one, so a
// repeated experiment simulates again instead of hitting the run cache.
func (st *stack) freshService() error {
	svc, err := simsvc.New(simsvc.Config{CacheDir: st.cacheDir, Workers: st.workers})
	if err != nil {
		return fmt.Errorf("start node service: %w", err)
	}
	old := st.svc
	st.svc = svc
	st.swap.set(svc.Handler())
	drainService(old)
	return nil
}

// ready waits for the first answered health check on the node and on the
// coordinator, each over a new connection, as a starting client would.
func (st *stack) ready() error {
	for _, base := range []string{st.node.url, st.coordSrv.url} {
		c := newClient(base)
		resp, err := c.hc.Get(base + "/v1/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				err = fmt.Errorf("health check of %s: HTTP %d", base, resp.StatusCode)
			}
		}
		c.close()
		if err != nil {
			return err
		}
	}
	return nil
}

func drainService(svc *simsvc.Service) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	svc.Drain(ctx)
}

func (st *stack) close() {
	if st.coordSrv != nil {
		st.coordSrv.close()
	}
	if st.coord != nil {
		st.coord.Close()
	}
	if st.node != nil {
		st.node.close()
	}
	if st.svc != nil {
		drainService(st.svc)
	}
}

// client is one closed-loop caller of the job API, either straight to the
// node or through the coordinator; both speak the same /v1/jobs protocol.
type client struct {
	base string
	hc   *http.Client
}

func newClient(base string) *client {
	return &client{base: base, hc: &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: 4,
		DisableCompression:  true,
	}}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// jobDoc is the part of a job document the benchmark reads.
type jobDoc struct {
	ID     string          `json:"id"`
	Key    string          `json:"key"`
	State  string          `json:"state"`
	Cached bool            `json:"cached"`
	Error  string          `json:"error"`
	Report json.RawMessage `json:"report"`
}

// outcome is one completed job as the client saw it.
type outcome struct {
	doc     jobDoc
	report  []byte // compacted report bytes
	cycles  uint64 // simulated cycles from the job's last progress event
	latency time.Duration
}

// pending is a submitted job the client has not yet seen finish.
type pending struct {
	doc   jobDoc
	err   error
	start time.Time
	root  int64 // request span
	req   int64
}

// submit posts spec. With a tracer, the post is a span under a request
// span; both carry req.
func (c *client) submit(spec []byte, tr *tracer, req int64) pending {
	p := pending{root: tr.reserve(), req: req, start: time.Now()}
	p.doc, p.err = c.post(spec)
	tr.record("http.submit", p.root, req, p.start, time.Now())
	return p
}

// wait finishes a submitted job: unless the reply was already terminal (a
// cache hit), it waits for the job's terminal event on its SSE stream and
// fetches the finished document. The latency runs from the post, so it
// covers all three calls.
func (c *client) wait(p pending, tr *tracer) (outcome, error) {
	var o outcome
	if p.err != nil {
		return o, p.err
	}
	doc, err := p.doc, error(nil)
	if !terminal(doc.State) {
		t1 := time.Now()
		if o.cycles, err = c.await(doc.ID); err != nil {
			return o, err
		}
		t2 := time.Now()
		tr.record("sse.await", p.root, p.req, t1, t2)
		if doc, err = c.get(doc.ID); err != nil {
			return o, err
		}
		tr.record("http.job", p.root, p.req, t2, time.Now())
	}
	o.latency = time.Since(p.start)
	tr.finish(p.root, "request", 0, p.req, p.start, p.start.Add(o.latency))
	o.doc = doc
	if len(doc.Report) > 0 {
		var buf bytes.Buffer
		if err := json.Compact(&buf, doc.Report); err != nil {
			return o, fmt.Errorf("job %s: report is not JSON: %w", doc.ID, err)
		}
		o.report = buf.Bytes()
	}
	return o, nil
}

// do submits spec and waits for it.
func (c *client) do(spec []byte, tr *tracer, req int64) (outcome, error) {
	return c.wait(c.submit(spec, tr, req), tr)
}

// doInOrder posts the specs one after another, so the node queues them in
// this order, and then waits for all of them at once.
func (c *client) doInOrder(specs [][]byte) ([]outcome, []error) {
	ps := make([]pending, len(specs))
	for i, s := range specs {
		ps[i] = c.submit(s, nil, 0)
	}
	outs := make([]outcome, len(ps))
	errs := make([]error, len(ps))
	parallel(len(ps), func(i int) { outs[i], errs[i] = c.wait(ps[i], nil) })
	return outs, errs
}

func terminal(state string) bool {
	return simsvc.JobState(state).Terminal()
}

func (c *client) post(spec []byte) (jobDoc, error) {
	resp, err := c.hc.Post(c.base+"/v1/jobs", "application/json", bytes.NewReader(spec))
	if err != nil {
		return jobDoc{}, err
	}
	return readDoc(resp)
}

func (c *client) get(id string) (jobDoc, error) {
	resp, err := c.hc.Get(c.base + "/v1/jobs/" + id)
	if err != nil {
		return jobDoc{}, err
	}
	return readDoc(resp)
}

func readDoc(resp *http.Response) (jobDoc, error) {
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return jobDoc{}, err
	}
	if resp.StatusCode/100 != 2 {
		return jobDoc{}, fmt.Errorf("HTTP %d: %s", resp.StatusCode, strings.TrimSpace(string(body)))
	}
	var doc jobDoc
	if err := json.Unmarshal(body, &doc); err != nil {
		return jobDoc{}, fmt.Errorf("decode job document: %w", err)
	}
	return doc, nil
}

// await reads the job's event stream until its terminal event and returns
// the simulated cycles of the last progress event.
func (c *client) await(id string) (uint64, error) {
	resp, err := c.hc.Get(c.base + "/v1/jobs/" + id + "/events")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return 0, fmt.Errorf("events for %s: HTTP %d", id, resp.StatusCode)
	}
	var cycles uint64
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		data, ok := strings.CutPrefix(sc.Text(), "data: ")
		if !ok {
			continue
		}
		var ev simsvc.JobEvent
		if err := json.Unmarshal([]byte(data), &ev); err != nil {
			return 0, fmt.Errorf("events for %s: %w", id, err)
		}
		if ev.Type == simsvc.EventProgress {
			var snap progress.Snapshot
			if err := json.Unmarshal(ev.Data, &snap); err == nil && snap.Cycles > cycles {
				cycles = snap.Cycles
			}
			continue
		}
		return cycles, nil // done, failed or canceled: the document says which
	}
	if err := sc.Err(); err != nil {
		return 0, fmt.Errorf("events for %s: %w", id, err)
	}
	return 0, errors.New("events for " + id + ": stream ended before a terminal event")
}

// specBody encodes a spec as a client would send it.
func specBody(s simsvc.JobSpec) []byte {
	b, err := json.Marshal(s)
	if err != nil {
		panic(err) // JobSpec is plain data
	}
	return b
}

// parallel runs fn(i) for i in [0, n) on n goroutines and waits for all.
func parallel(n int, fn func(i int)) {
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			fn(i)
		}(i)
	}
	wg.Wait()
}
