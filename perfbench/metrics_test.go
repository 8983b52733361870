package main

import (
	"encoding/json"
	"os"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending, so percentile must sort
	}
	return xs
}

// A percentile is reported only when ten samples lie beyond it: p95 needs
// 200 samples, p50 needs 20.
func TestPercentileNeedsTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n      int
		p      float64
		want   float64
		wantOK bool
	}{
		{200, 0.95, 190, true},
		{199, 0.95, 190, false},
		{1000, 0.95, 950, true},
		{20, 0.50, 10, true},
		{19, 0.50, 10, false},
		{1, 0.50, 1, false},
	} {
		got, ok := percentile(seq(c.n), c.p)
		if got != c.want || ok != c.wantOK {
			t.Errorf("n=%d p=%g: got (%g, %v), want (%g, %v)", c.n, c.p, got, ok, c.want, c.wantOK)
		}
	}
	if _, ok := percentile(nil, 0.5); ok {
		t.Error("percentile of no samples reported ok")
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %g, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %g, want 2.5", got)
	}
}

func TestCollectRejectsMissingAndNonFinite(t *testing.T) {
	defs := []metricDef{{Name: "a", Unit: "s"}, {Name: "b", Unit: "ms"}}
	if _, err := collect(defs, map[string]float64{"a": 1}); err == nil {
		t.Error("missing metric accepted")
	}
	zero := 0.0
	if _, err := collect(defs, map[string]float64{"a": 1, "b": 1 / zero}); err == nil {
		t.Error("infinite metric accepted")
	}
	got, err := collect(defs, map[string]float64{"a": 1, "b": 2, "c": 3})
	if err != nil || len(got) != 2 || got["b"] != (metricValue{2, "ms"}) {
		t.Errorf("collect = %v, %v", got, err)
	}
}

// BENCHMARK.json at the repository root describes the same workloads and
// metrics as the tables this package measures.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var b struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(specs) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the harness %d", len(b.Workloads), len(specs))
	}
	for i, w := range b.Workloads {
		if w.Name != specs[i].Name || w.Why != specs[i].Why {
			t.Errorf("workload %d: json {%s: %s}, harness {%s: %s}", i, w.Name, w.Why, specs[i].Name, specs[i].Why)
		}
	}
	check := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: json lists %d metrics, the harness %d", kind, len(got), len(want))
		}
		for i, m := range got {
			d := want[i]
			if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
				t.Errorf("%s %d: json %+v, harness %+v", kind, i, m, d)
			}
			if bounded != (m.Bound != nil) || (bounded && *m.Bound != d.Bound) {
				t.Errorf("%s %s: json bound %v, harness %g", kind, m.Name, m.Bound, d.Bound)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd, true)
	check("per_layer", b.PerLayer, perLayer, false)
}
