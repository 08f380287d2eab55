package main

import (
	"os"
	"path/filepath"
	"testing"
)

// doneHit is a cache-hit outcome carrying report for key.
func doneHit(key string, report []byte) outcome {
	return outcome{doc: jobDoc{ID: "1", Key: key, State: "done", Cached: true}, report: report}
}

func TestErrorRateCountsByteMismatch(t *testing.T) {
	var ck checks
	r := &serveRun{ck: &ck}
	r.ref.check("warm reply", "k1", []byte(`{"id":"run","title":"a"}`))

	ck.op(r.checkOp(0, true, doneHit("k1", []byte(`{"id":"run","title":"a"}`)), nil))
	ck.op(r.checkOp(1, true, doneHit("k1", []byte(`{"id":"run","title":"b"}`)), nil))
	if ck.attempted != 2 || ck.failed != 1 {
		t.Fatalf("attempted %d failed %d, want 2 and 1", ck.attempted, ck.failed)
	}
	if got := ck.errorRate(); got != 0.5 {
		t.Fatalf("error_rate = %g, want 0.5", got)
	}
	if len(ck.reasons) != 1 {
		t.Fatalf("reasons = %q", ck.reasons)
	}
}

func TestJobAndCacheChecks(t *testing.T) {
	r := &serveRun{ck: &checks{}}
	r.ref.check("warm reply", "k1", []byte(`{}`))
	failed := outcome{doc: jobDoc{ID: "2", Key: "k2", State: "failed", Error: "boom"}}
	if err := r.checkOp(0, false, failed, nil); err == nil {
		t.Error("a job that did not end done passed")
	}
	uncached := doneHit("k1", []byte(`{}`))
	uncached.doc.Cached = false
	if err := r.checkOp(0, true, uncached, nil); err == nil {
		t.Error("a hit that was not served from cache passed")
	}
	if err := r.checkOp(0, false, doneHit("k3", []byte(`{}`)), nil); err == nil {
		t.Error("a miss served from cache passed")
	}
	if err := r.checkOp(0, true, doneHit("k9", []byte(`{}`)), nil); err == nil {
		t.Error("a hit outside the warmed set passed")
	}
}

func TestPinnedDigestComparison(t *testing.T) {
	root, err := filepath.Abs("..")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(root, "results", "metrics")); err != nil {
		t.Skip("no checkout around the benchmark")
	}
	for id := range pinned {
		want, err := pinnedReport(root, id, false)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if err := checkPinned(root, id, want); err != nil {
			t.Errorf("%s: pinned report does not match itself: %v", id, err)
		}
		changed := append([]byte(nil), want...)
		changed[len(changed)/2] ^= 1
		if err := checkPinned(root, id, changed); err == nil {
			t.Errorf("%s: a changed byte passed the digest check", id)
		}
	}
}
