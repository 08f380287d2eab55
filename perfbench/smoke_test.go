package main

import (
	"math"
	"path/filepath"
	"testing"
)

// Tiny-budget versions of the three workloads: the same code paths as a
// benchmark run, at call budgets that finish in seconds.
var (
	tinyPaper   = gridConfig{name: "paper-grid", exps: []string{"fig13"}, calls: 300, cores: 2, hits: 3}
	tinyCluster = gridConfig{name: "cluster-grid", exps: []string{"scale", "designspace"}, calls: 300, cores: 2, hits: 3}
	tinyServe   = serveConfig{
		ubenchCalls: 300, clusterCores: 2, clusterCalls: 100,
		hitSeeds: 1, round: 4, missPct: 50, sample: 1,
	}
)

func smoke(t *testing.T, name string, traced bool, fn func(*bench) error) {
	t.Helper()
	root, err := filepath.Abs("..")
	if err != nil {
		t.Fatal(err)
	}
	b := newBench(root, t.TempDir(), name, 3, 0.05, traced)
	if err := fn(b); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	res, err := b.result()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 {
		t.Fatalf("%s traced=%t: %d of %d operations failed: %q", name, traced, res.Failed, res.Attempted, b.ck.reasons)
	}
	for n, v := range res.Metrics {
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			t.Errorf("%s: metric %s = %g", name, n, v.Value)
		}
	}
}

func TestSmokePaperGrid(t *testing.T) {
	smoke(t, "paper-grid", false, func(b *bench) error { return runGrid(b, tinyPaper) })
	smoke(t, "paper-grid", true, func(b *bench) error { return traceGrid(b, tinyPaper) })
}

func TestSmokeClusterGrid(t *testing.T) {
	smoke(t, "cluster-grid", false, func(b *bench) error { return runGrid(b, tinyCluster) })
	smoke(t, "cluster-grid", true, func(b *bench) error { return traceGrid(b, tinyCluster) })
}

func TestSmokeServeMix(t *testing.T) {
	smoke(t, "serve-mix", false, func(b *bench) error { return runServe(b, tinyServe) })
	smoke(t, "serve-mix", true, func(b *bench) error { return traceServe(b, tinyServe) })
}
