// Command perfbench is the repository benchmark: it runs the CARD engine on
// three preset workloads and reports end-to-end metrics (--trace 0) or
// per-layer metrics from a traced run (--trace 1).
//
//	bash perfbench/run.sh --workload groups-1k-maintain --seed 1 --seconds 10 --trace 0
//
// The untraced run makes several trials, each a fresh set-up and one window
// through engine.RunWorkload exactly as a user would call it; host times
// are the trials' medians. The traced run measures an untraced trial and a
// traced one; the traced window drives workload.Run through a driver and a
// scheme decorator that time each layer's calls from this package. Every
// window ends with an outcome digest; the run fails when two windows of one
// workload and seed disagree, here or in an earlier run of the same binary
// (see ledger.go).
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"

	"card/internal/engine"
	"card/internal/workload"
)

// defaultSeed drives the recorded runs; heldOutSeed is kept for checking a
// claimed gain on inputs it was not tuned on.
const (
	defaultSeed = 1
	heldOutSeed = 7
)

// result is the JSON object printed as the last line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+strings.Join(specNames(), ", ")+" or all")
	seed := fs.Uint64("seed", defaultSeed, fmt.Sprintf("traffic and sample seed (held-out seed: %d)", heldOutSeed))
	seconds := fs.Int("seconds", 10, "host-time budget of the measured windows, in seconds")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) || *name == "" || fs.NArg() > 0 {
		fmt.Fprintln(stderr, "perfbench: need --workload, --seconds >= 1 and --trace 0 or 1")
		return 2
	}
	// Two workers at most, so a run measures the same parallelism on any
	// host with at least two cores.
	if runtime.NumCPU() >= 2 {
		runtime.GOMAXPROCS(2)
	} else {
		runtime.GOMAXPROCS(1)
	}
	names := []string{*name}
	if *name == "all" {
		names = specNames()
	}
	res := result{Correct: true, Metrics: map[string]metricValue{}}
	for _, n := range names {
		s, err := lookupSpec(n)
		if err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 2
		}
		r, err := runSpec(s, *seed, *seconds, *trace == 1, stdout)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", n, err)
			res.Correct = false
		}
		res.Attempted += r.Attempted
		res.Failed += r.Failed
		for k, v := range r.Metrics {
			if len(names) > 1 {
				k = n + "/" + k
			}
			res.Metrics[k] = v
		}
	}
	if !res.Correct {
		res.Failed = res.Attempted
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

func specNames() []string {
	out := make([]string, len(specs))
	for i, s := range specs {
		out[i] = s.Name
	}
	return out
}

// runSpec runs one workload and prints its figures. On error the result
// still carries the offered load, so the caller can count it as failed.
func runSpec(s spec, seed uint64, seconds int, traced bool, out io.Writer) (result, error) {
	var res result
	chunks := s.traffic(seed, seconds)
	fmt.Fprintf(out, "workload %s (preset %s) seed %d: window t=%g..%g in %d chunks, %g qps\n",
		s.Name, s.Preset, seed, s.WarmTo, s.WarmTo+chunk*float64(len(chunks)), len(chunks), float64(qps))

	n := trials
	if traced {
		n = 1
	}
	base, setupS, simRate, liveHeap, err := untraced(s, seed, chunks, n)
	if err != nil {
		return res, err
	}
	// A failed operation is a query whose source was down. A query that ran
	// and found no holder is a protocol outcome (CARD's reachability is
	// below 100% by design), printed as not found.
	queries, found, srcDown := base.totals()
	res.Attempted, res.Failed = n*queries, n*srcDown
	e2e := map[string]float64{
		"setup_s":               setupS,
		"sim_s_per_s":           simRate,
		"live_heap_mb":          liveHeap,
		"reach_pct":             base.reachPct,
		"maint_msgs_per_node_s": base.maint,
		"msgs_per_query":        base.msgsPerQuery(),
	}
	fmt.Fprintf(out, "  %d trial(s): operations %d, failed %d, not found %d\n",
		n, res.Attempted, res.Failed, n*(queries-found-srcDown))
	printMetrics(out, endToEnd, e2e)
	fmt.Fprintf(out, "  digest %s\n", base.digest)
	if err := checkLedger(ledgerDir, s.Name, seed, seconds, base.digest); err != nil {
		return res, err
	}
	if err := s.regime(base.facts); err != nil {
		return res, fmt.Errorf("window left its regime: %v", err)
	}
	if !traced {
		var err error
		res.Metrics, err = collect(endToEnd, e2e)
		return res, err
	}

	layers, err := tracedRun(s, seed, chunks, base, out)
	if err != nil {
		return res, err
	}
	printMetrics(out, perLayer, layers)
	res.Metrics, err = collect(perLayer, layers)
	return res, err
}

// untraced makes n trials of set-up and window, checks that every window
// ends with the same digest, and returns the first window with the
// medians of set-up time and live heap and the simulation rate.
func untraced(s spec, seed uint64, chunks []workload.Config, n int) (first *window, setupS, simRate, heap float64, err error) {
	var setups, heaps []float64
	var windows []*window
	for i := 0; i < n; i++ {
		runtime.GC()
		e, st, err := setUp(s)
		if err != nil {
			return nil, 0, 0, 0, err
		}
		w, err := runWindow(e, seed, chunks, e.RunWorkload)
		if err != nil {
			return nil, 0, 0, 0, err
		}
		if i == 0 {
			first = w
		} else if w.digest != first.digest {
			return nil, 0, 0, 0, fmt.Errorf("trial %d ended with digest %s, trial 1 with %s", i+1, w.digest, first.digest)
		}
		setups = append(setups, st.total().Seconds())
		windows = append(windows, w)
		heaps = append(heaps, w.liveHeap)
	}
	return first, median(setups), windowRate(windows), median(heaps), nil
}

// tracedRun sets the workload up again and measures a traced window,
// returning the per-layer metrics. base is the untraced window of the same
// seed: its digest must match, and it supplies the runtime figures and the
// tracing-overhead baseline.
func tracedRun(s spec, seed uint64, chunks []workload.Config, base *window, out io.Writer) (map[string]float64, error) {
	runtime.GC()
	tr, err := newTracer()
	if err != nil {
		return nil, err
	}
	e, st, err := setUp(s)
	if err != nil {
		return nil, err
	}
	for i := range tr.setup {
		tr.setup[i] = interval{tr.at(st[i]), tr.at(st[i+1])}
	}
	w, err := runWindow(e, seed, chunks, func(cfg workload.Config) (*workload.Report, error) {
		return tr.runTraced(e, cfg)
	})
	if err != nil {
		return nil, err
	}
	if w.digest != base.digest {
		return nil, fmt.Errorf("traced digest %s differs from untraced %s", w.digest, base.digest)
	}
	a, err := attribute(tr.window, tr.ticks, tr.discovers())
	if err != nil {
		return nil, fmt.Errorf("attribution: %v", err)
	}
	if a.sum() != a.Window {
		return nil, fmt.Errorf("attribution: layers sum to %d ns, window is %d ns", a.sum(), a.Window)
	}
	ms := func(ns int64) float64 { return float64(ns) / 1e6 }
	fmt.Fprintf(out, "  traced window %.1f ms = engine %.1f + neighborhood %.1f + scheme %.1f + workload %.1f + unattributed %.1f\n",
		ms(a.Window), ms(a.Engine), ms(a.Neighborhood), ms(a.Scheme), ms(a.Workload), ms(a.Unattributed))

	v, facts, err := layerMetrics(tr, e, st, base, w, a)
	if err != nil {
		return nil, err
	}
	if err := s.regime(facts); err != nil {
		return nil, fmt.Errorf("traced window left its regime: %v", err)
	}
	spans := 0
	for _, ws := range tr.discovers() {
		spans += len(ws)
	}
	fmt.Fprintf(out, "  discover latency percentiles over %d queries\n", spans)
	path := fmt.Sprintf(".bench_build/traces/%s-seed%d.json", s.Name, seed)
	if err := tr.write(path); err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}
	fmt.Fprintf(out, "  spans written to %s\n", path)
	return v, nil
}

// layerMetrics computes the per-layer metrics of a traced window w and the
// regime facts its ticks show. base is the untraced window of the same
// seed, st the traced run's set-up and a its attribution.
func layerMetrics(tr *tracer, e *engine.Engine, st setupTimes, base, w *window, a attribution) (map[string]float64, regimeFacts, error) {
	ms := func(ns int64) float64 { return float64(ns) / 1e6 }
	facts := w.facts
	facts.hasTicks = true
	v := map[string]float64{}
	var roundMS, refreshMS, roundNodes, warmMS, queryMS, changed []float64
	var maint engine.MessageCounts
	for _, t := range tr.ticks {
		if t.Rounds > 0 {
			roundMS = append(roundMS, ms(t.Advance.dur()))
			roundNodes = append(roundNodes, float64(t.RoundNodes))
			facts.roundNodes = append(facts.roundNodes, t.RoundNodes)
			maint = addCounts(maint, t.Maint)
		} else {
			refreshMS = append(refreshMS, ms(t.Advance.dur()))
		}
		if t.AllChanged {
			facts.fullRebuilds++
		} else {
			changed = append(changed, float64(t.Changed))
		}
		warmMS = append(warmMS, ms(t.Warm.dur()))
		queryMS = append(queryMS, ms(t.Tick.dur()-t.Advance.dur()-t.Warm.dur()))
	}
	if len(roundMS) == 0 || len(refreshMS) == 0 {
		return nil, facts, fmt.Errorf("window holds %d round and %d refresh ticks; need both", len(roundMS), len(refreshMS))
	}
	rounds := float64(len(roundMS))
	v["engine.round_tick_ms"] = mean(roundMS)
	v["engine.refresh_tick_ms"] = mean(refreshMS)
	v["engine.round_nodes"] = mean(roundNodes)
	v["neighborhood.warm_ms"] = mean(warmMS)
	v["workload.query_phase_ms"] = mean(queryMS)
	v["card.csq_hops_per_round"] = float64(maint.Selection) / rounds
	v["card.backtrack_hops_per_round"] = float64(maint.Backtrack) / rounds
	v["card.validate_hops_per_round"] = float64(maint.Validation) / rounds
	v["card.recovery_hops_per_round"] = float64(maint.Recovery) / rounds
	stats := e.Stats()
	v["card.csq_success_ratio"] = float64(stats.CSQSucceeded) / float64(stats.CSQLaunched)
	v["topology.changed_nodes_per_refresh"] = mean(changed)
	v["topology.full_rebuilds"] = float64(facts.fullRebuilds)

	var lat []float64
	for _, spans := range tr.discovers() {
		for _, s := range spans {
			lat = append(lat, float64(s.dur())/1e3)
		}
	}
	for _, p := range []struct {
		name string
		q    float64
	}{{"scheme.discover_us_p50", 0.50}, {"scheme.discover_us_p95", 0.95}} {
		x, ok := percentile(lat, p.q)
		if !ok {
			return nil, facts, fmt.Errorf("%s needs %d samples beyond it; the window ran %d queries", p.name, minBeyond, len(lat))
		}
		v[p.name] = x
	}

	for i, name := range []string{"setup.build_s", "setup.select_s", "setup.warm_s"} {
		v[name] = st[i+1].Sub(st[i]).Seconds()
	}
	m0, m1 := &base.mem[0], &base.mem[1]
	v["runtime.alloc_mb_per_sim_s"] = float64(m1.TotalAlloc-m0.TotalAlloc) / mib / base.simSec
	v["runtime.gc_cycles"] = float64(m1.NumGC - m0.NumGC)
	v["runtime.gc_pause_ms"] = float64(m1.PauseTotalNs-m0.PauseTotalNs) / 1e6
	v["trace.unattributed_share"] = float64(a.Unattributed) / float64(a.Window)
	untracedRate, tracedRate := windowRate([]*window{base}), windowRate([]*window{w})
	v["trace.overhead_pct"] = 100 * (untracedRate - tracedRate) / untracedRate

	return v, facts, nil
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func printMetrics(out io.Writer, defs []metricDef, vals map[string]float64) {
	for _, d := range defs {
		if v, ok := vals[d.Name]; ok {
			fmt.Fprintf(out, "  %-36s %14.6g %s\n", d.Name, v, d.Unit)
		}
	}
}
