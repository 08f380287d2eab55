package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"mallacc/internal/simsvc"
)

// TestBenchmarkJSONMatchesMetrics keeps BENCHMARK.json and the metrics the
// benchmark prints in step: same workloads, same names, same units.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark")
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(doc.Workloads), len(workloads))
	}
	for _, w := range doc.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q is not run by the benchmark", w.Name)
		}
	}
	same := func(kind string, listed []struct{ Name, Unit string }, defs []metricDef) {
		if len(listed) != len(defs) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark prints %d", kind, len(listed), len(defs))
			return
		}
		for i, d := range defs {
			if listed[i].Name != d.name || listed[i].Unit != d.unit {
				t.Errorf("%s metric %d: BENCHMARK.json has %s [%s], the benchmark prints %s [%s]",
					kind, i, listed[i].Name, listed[i].Unit, d.name, d.unit)
			}
		}
	}
	same("end_to_end", doc.EndToEnd, e2eMetrics)
	same("per_layer", doc.PerLayer, layerMetrics)
}

// TestServeStreamMix checks the serve-mix stream against its configuration:
// the miss share, every miss point drawn, misses on unique seeds and hits
// from the warmed set only.
func TestServeStreamMix(t *testing.T) {
	const n = 20000
	hits := defaultServe.hitSet(7)
	warmed := map[simsvc.JobSpec]bool{}
	for _, h := range hits {
		warmed[h] = true
	}
	misses := 0
	points := map[[2]string]int{}
	seeds := map[uint64]bool{}
	for i := 0; i < n; i++ {
		spec, isHit := defaultServe.op(7, i, hits)
		if isHit {
			if !warmed[spec] {
				t.Fatalf("position %d: hit %+v is not in the warmed set", i, spec)
			}
			continue
		}
		misses++
		points[[2]string{string(spec.Kind) + "/" + spec.Workload, spec.Variant}]++
		if seeds[spec.Seed] || spec.Seed < seedBase(7)+missOffset {
			t.Fatalf("position %d: miss seed %d is not unique to it", i, spec.Seed)
		}
		seeds[spec.Seed] = true
	}
	if share := float64(misses) / n; share < 0.48 || share > 0.52 {
		t.Errorf("miss share %.3f, want about %d %%", share, defaultServe.missPct)
	}
	if len(points) != 6 {
		t.Fatalf("misses reach %d grid points, want 6: %v", len(points), points)
	}
	for p, c := range points {
		if share := float64(c) / float64(misses); share < 0.15 || share > 0.18 {
			t.Errorf("miss point %v has share %.3f, want about 1/6", p, share)
		}
	}
}
