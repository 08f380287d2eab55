package main

import (
	"testing"
	"time"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[n-1-i] = float64(i + 1) // descending, so the rule must sort
	}
	return xs
}

func TestTailRule(t *testing.T) {
	cases := []struct {
		name   string
		n      int
		capPct float64
		want   tail
	}{
		{"p99 has exactly ten beyond", 1000, 99.9, tail{Value: 990, Percentile: 99, Samples: 1000, Beyond: 10}},
		{"one short of p99 falls back to p90", 999, 99.9, tail{Value: 900, Percentile: 90, Samples: 999, Beyond: 99}},
		{"p99.9 needs ten thousand", 10000, 99.9, tail{Value: 9990, Percentile: 99.9, Samples: 10000, Beyond: 10}},
		{"cap holds the percentile down", 5000, 90, tail{Value: 4500, Percentile: 90, Samples: 5000, Beyond: 500}},
		{"median needs twenty", 20, 99.9, tail{Value: 10, Percentile: 50, Samples: 20, Beyond: 10}},
		{"too few samples report the maximum", 19, 99.9, tail{Value: 19, Percentile: 100, Samples: 19}},
		{"no samples", 0, 99.9, tail{Percentile: 100}},
	}
	for _, c := range cases {
		if got := tailOf(seq(c.n), c.capPct); got != c.want {
			t.Errorf("%s: tailOf(%d samples, cap %g) = %+v, want %+v", c.name, c.n, c.capPct, got, c.want)
		}
	}
}

func TestMedianAndPercentile(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median of 3 = %g, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of 4 = %g, want 2.5", got)
	}
	if got := percentile(seq(100), 90); got != 90 {
		t.Errorf("p90 of 1..100 = %g, want 90", got)
	}
}

func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	ns := func(v int) time.Duration { return time.Duration(v) }
	spans := []span{
		{ID: 1, Name: "parent", Start: ns(0), End: ns(100)},
		// Overlapping children count once: [10,50) covers 40.
		{ID: 2, Parent: 1, Name: "child", Start: ns(10), End: ns(30)},
		{ID: 3, Parent: 1, Name: "child", Start: ns(20), End: ns(50)},
		{ID: 4, Parent: 1, Name: "child", Start: ns(60), End: ns(70)},
		// A child running past its parent covers only [90,100).
		{ID: 5, Parent: 1, Name: "late", Start: ns(90), End: ns(120)},
		// A grandchild reduces its own parent, not the root.
		{ID: 6, Parent: 4, Name: "grandchild", Start: ns(62), End: ns(66)},
	}
	got := selfTimes(spans)
	want := map[string]time.Duration{
		"parent":     100 - 40 - 10 - 10,
		"child":      20 + 30 + (10 - 4),
		"late":       30,
		"grandchild": 4,
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("self time of %s = %v, want %v", name, got[name], w)
		}
	}
}

func TestTracerRecordsParentsAndNil(t *testing.T) {
	var off *tracer
	if id := off.record("x", 0, 0, time.Now(), time.Now()); id != 0 || off.snapshot() != nil {
		t.Fatalf("nil tracer recorded a span")
	}
	tr := newTracer()
	root := tr.reserve()
	t0 := time.Now()
	child := tr.record("child", root, 7, t0, t0.Add(time.Millisecond))
	tr.finish(root, "root", 0, 7, t0, t0.Add(2*time.Millisecond))
	spans := tr.snapshot()
	if len(spans) != 2 || spans[0].ID != child || spans[0].Parent != root || spans[1].ID != root || spans[0].Req != 7 {
		t.Fatalf("spans = %+v", spans)
	}
	if self := selfTimes(spans); self["root"] != time.Millisecond {
		t.Fatalf("root self time = %v, want 1ms", self["root"])
	}
}
