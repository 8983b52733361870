package main

import (
	"fmt"
	"math"
	"sort"
)

// metricDef describes one reported metric. The end-to-end set is printed by
// the untraced run (--trace 0), the per-layer set by the traced run
// (--trace 1). BENCHMARK.json repeats name, unit, direction and bound;
// TestBenchmarkJSONMatchesTables keeps the two in step.
//
// A per-layer metric's name starts with its layer: the package whose calls
// it times or counts, or setup, runtime and trace for the harness's own
// views of set-up, the Go runtime and the tracing itself.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "higher" or "lower"
	// Bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change counts as a regression.
	Bound float64
	// Moves names the end-to-end metric and the workloads a per-layer
	// metric should move, written down before any change is measured.
	Moves string
}

const (
	wGroups = "groups-1k-maintain"
	wHetero = "hetero-5k-partition"
	wRWP    = "rwp-100k-serve"
)

// The host-time bounds are the widest allowed: on a shared 2-core host the
// same run of sim_s_per_s moves by 10-20% between processes. The simulated
// metrics repeat exactly for a seed; their bounds cover the spread between
// traffic seeds (msgs_per_query moves by ~7% between seeds).
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "sim_s_per_s", Unit: "sim-s/s", Better: "higher", Bound: 0.25},
	{Name: "live_heap_mb", Unit: "MiB", Better: "lower", Bound: 0.1},
	{Name: "reach_pct", Unit: "%", Better: "higher", Bound: 0.1},
	{Name: "maint_msgs_per_node_s", Unit: "msgs/node/sim-s", Better: "lower", Bound: 0.1},
	{Name: "msgs_per_query", Unit: "msgs", Better: "lower", Bound: 0.25},
}

const maintWorkloads = wGroups + ", " + wHetero

var perLayer = []metricDef{
	{Name: "engine.round_tick_ms", Unit: "ms", Better: "lower",
		Moves: "sim_s_per_s on " + maintWorkloads},
	{Name: "engine.refresh_tick_ms", Unit: "ms", Better: "lower",
		Moves: "sim_s_per_s on " + maintWorkloads},
	{Name: "engine.round_nodes", Unit: "nodes", Better: "lower",
		Moves: "sim_s_per_s on " + maintWorkloads},
	{Name: "neighborhood.warm_ms", Unit: "ms", Better: "lower",
		Moves: "sim_s_per_s on " + maintWorkloads + "; near 0 on " + wRWP},
	{Name: "scheme.discover_us_p50", Unit: "us", Better: "lower",
		Moves: "sim_s_per_s on " + wRWP},
	{Name: "scheme.discover_us_p95", Unit: "us", Better: "lower",
		Moves: "sim_s_per_s on " + wRWP},
	{Name: "workload.query_phase_ms", Unit: "ms", Better: "lower",
		Moves: "sim_s_per_s on " + wRWP},
	{Name: "card.csq_hops_per_round", Unit: "msgs", Better: "lower",
		Moves: "engine.round_tick_ms, sim_s_per_s and maint_msgs_per_node_s on " + maintWorkloads},
	{Name: "card.backtrack_hops_per_round", Unit: "msgs", Better: "lower",
		Moves: "engine.round_tick_ms, sim_s_per_s and maint_msgs_per_node_s on " + maintWorkloads},
	{Name: "card.validate_hops_per_round", Unit: "msgs", Better: "lower",
		Moves: "engine.round_tick_ms, sim_s_per_s and maint_msgs_per_node_s on " + maintWorkloads},
	{Name: "card.recovery_hops_per_round", Unit: "msgs", Better: "lower",
		Moves: "engine.round_tick_ms, sim_s_per_s and maint_msgs_per_node_s on " + maintWorkloads},
	{Name: "card.csq_success_ratio", Unit: "ratio", Better: "higher",
		Moves: "engine.round_tick_ms, sim_s_per_s and maint_msgs_per_node_s on " + maintWorkloads},
	{Name: "topology.changed_nodes_per_refresh", Unit: "nodes", Better: "lower",
		Moves: "engine.refresh_tick_ms on " + wHetero},
	{Name: "topology.full_rebuilds", Unit: "count", Better: "lower",
		Moves: "engine.refresh_tick_ms on " + wHetero},
	{Name: "setup.build_s", Unit: "s", Better: "lower",
		Moves: "setup_s on every workload"},
	{Name: "setup.select_s", Unit: "s", Better: "lower",
		Moves: "setup_s on every workload, most on " + wRWP},
	{Name: "setup.warm_s", Unit: "s", Better: "lower",
		Moves: "setup_s on " + wHetero + ", " + wRWP},
	{Name: "runtime.alloc_mb_per_sim_s", Unit: "MiB/sim-s", Better: "lower",
		Moves: "sim_s_per_s on " + maintWorkloads},
	{Name: "runtime.gc_cycles", Unit: "count", Better: "lower",
		Moves: "sim_s_per_s on " + maintWorkloads},
	{Name: "runtime.gc_pause_ms", Unit: "ms", Better: "lower",
		Moves: "sim_s_per_s on " + maintWorkloads},
	{Name: "trace.unattributed_share", Unit: "ratio", Better: "lower",
		Moves: "none: window time outside every layer span"},
	{Name: "trace.overhead_pct", Unit: "%", Better: "lower",
		Moves: "none: traced minus untraced sim_s_per_s, as a share of untraced"},
}

// metricValue is one reported figure in the result line's shape.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// collect looks up every metric of defs in vals, failing on a missing or
// non-finite value so a result line is always complete.
func collect(defs []metricDef, vals map[string]float64) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v, ok := vals[d.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", d.Name, v)
		}
		out[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	return out, nil
}

// minBeyond is how many samples a reported percentile needs above it.
const minBeyond = 10

// percentile returns the nearest-rank p-quantile (0 < p < 1) of xs, and
// whether at least minBeyond samples lie beyond that rank. A p95 therefore
// needs 200 samples. xs is sorted in place.
func percentile(xs []float64, p float64) (float64, bool) {
	n := len(xs)
	if n == 0 {
		return 0, false
	}
	sort.Float64s(xs)
	idx := int(math.Ceil(p*float64(n))) - 1
	if idx < 0 {
		idx = 0
	}
	return xs[idx], n-1-idx >= minBeyond
}

// median returns the median of xs (the mean of the middle pair for an even
// count). xs is sorted in place.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}
