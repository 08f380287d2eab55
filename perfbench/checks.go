package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"mallacc/internal/harness"
)

// maxReasons caps how many failure messages a run keeps.
const maxReasons = 20

// checks counts operations and the ones that failed or produced wrong
// output; error_rate is failed / attempted.
type checks struct {
	mu        sync.Mutex
	attempted int
	failed    int
	reasons   []string
}

// op records one attempted operation; a non-nil err marks it failed.
func (c *checks) op(err error) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.attempted++
	if err == nil {
		return true
	}
	c.failed++
	if len(c.reasons) < maxReasons {
		c.reasons = append(c.reasons, err.Error())
	}
	return false
}

func (c *checks) errorRate() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.attempted == 0 {
		return 0
	}
	return float64(c.failed) / float64(c.attempted)
}

// jobOK checks that a job ended done with a report.
func jobOK(o outcome, err error) error {
	if err != nil {
		return err
	}
	if o.doc.State != "done" {
		return fmt.Errorf("job %s ended %s: %s", o.doc.ID, o.doc.State, o.doc.Error)
	}
	if len(o.report) == 0 {
		return fmt.Errorf("job %s: done without a report", o.doc.ID)
	}
	return nil
}

// sameBytes checks a reply against the bytes an earlier reply returned for
// the same key.
func sameBytes(what, key string, got, want []byte) error {
	if !bytes.Equal(got, want) {
		return fmt.Errorf("%s for key %.12s: %d report bytes differ from the %d bytes of the reference reply", what, key, len(got), len(want))
	}
	return nil
}

// refBytes remembers the first report seen per key; later replies for the
// key must match it byte for byte.
type refBytes struct {
	mu sync.Mutex
	m  map[string][]byte
}

func (r *refBytes) check(what, key string, report []byte) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.m == nil {
		r.m = map[string][]byte{}
	}
	want, ok := r.m[key]
	if !ok {
		r.m[key] = report
		return nil
	}
	return sameBytes(what, key, report, want)
}

func (r *refBytes) get(key string) ([]byte, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	b, ok := r.m[key]
	return b, ok
}

// pinned names the digest under results/metrics that holds the reference
// report of each experiment, and the budget it was recorded at.
var pinned = map[string]string{
	"fig13":       "baseline.json",
	"scale":       "multicore.json",
	"designspace": "designspace.json",
}

// pinnedSeed and pinnedCalls are the seed and call budget of the digests.
const (
	pinnedSeed  = 1
	pinnedCalls = 60000
)

// pinnedReport returns the compact JSON of experiment id as pinned under
// root/results/metrics. The digests were recorded with per-run telemetry
// attached; withRuns=false drops it, matching a job submitted without
// metrics, which is how mallacc-bench runs by default.
func pinnedReport(root, id string, withRuns bool) ([]byte, error) {
	file, ok := pinned[id]
	if !ok {
		return nil, fmt.Errorf("no pinned digest for %s", id)
	}
	b, err := os.ReadFile(filepath.Join(root, "results", "metrics", file))
	if err != nil {
		return nil, err
	}
	var doc struct {
		Experiments []harness.Report `json:"experiments"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		return nil, fmt.Errorf("%s: %w", file, err)
	}
	for _, rep := range doc.Experiments {
		if rep.ID == id {
			if !withRuns {
				rep.Runs = nil
			}
			return json.Marshal(rep)
		}
	}
	return nil, fmt.Errorf("%s holds no %s report", file, id)
}

// checkPinned compares an experiment's report with its pinned digest.
func checkPinned(root, id string, report []byte) error {
	want, err := pinnedReport(root, id, false)
	if err != nil {
		return fmt.Errorf("pinned %s: %w", id, err)
	}
	if !bytes.Equal(report, want) {
		return fmt.Errorf("%s report (%d bytes) differs from the pinned digest (%d bytes)", id, len(report), len(want))
	}
	return nil
}
