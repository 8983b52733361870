package engine

import (
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"

	proto "card/internal/card"
	"card/internal/topology/topotest"
)

func testNet(nodes int) NetworkConfig {
	return NetworkConfig{Nodes: nodes, Width: 710, Height: 710, TxRange: 50, Seed: 7}
}

func testCfg() proto.Config {
	return proto.Config{R: 3, MaxContactDist: 16, NoC: 5, ValidatePeriod: 2}
}

func newEngine(t testing.TB, nc NetworkConfig, cfg proto.Config) *Engine {
	t.Helper()
	e, err := New(nc, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestAdvanceNonPositiveIsNoOp(t *testing.T) {
	e := newEngine(t, testNet(50), testCfg())
	e.Advance(0)
	e.Advance(-3)
	nan := 0.0
	e.Advance(nan / nan) // NaN
	if e.Now() != 0 || e.Rounds() != 0 {
		t.Errorf("no-op Advance moved state: now=%v rounds=%d", e.Now(), e.Rounds())
	}
}

func TestAdvanceExactBoundary(t *testing.T) {
	nc := testNet(50)
	nc.Mobility = RandomWaypoint
	e := newEngine(t, nc, testCfg()) // period 2
	e.Advance(2)                     // lands exactly on boundary 1: fires
	if e.Rounds() != 1 || e.Now() != 2 {
		t.Fatalf("after Advance(2): rounds=%d now=%v, want 1, 2", e.Rounds(), e.Now())
	}
	e.Advance(1.5) // now 3.5: no boundary
	if e.Rounds() != 1 {
		t.Fatalf("after Advance(1.5): rounds=%d, want 1", e.Rounds())
	}
	e.Advance(0.5) // lands exactly on boundary 2
	if e.Rounds() != 2 || e.Now() != 4 {
		t.Fatalf("after Advance(0.5): rounds=%d now=%v, want 2, 4", e.Rounds(), e.Now())
	}
}

func TestAdvanceMultiPeriod(t *testing.T) {
	nc := testNet(50)
	nc.Mobility = RandomWaypoint
	e := newEngine(t, nc, testCfg()) // period 2
	e.Advance(7)                     // boundaries 2, 4, 6
	if e.Rounds() != 3 || e.Now() != 7 {
		t.Fatalf("after Advance(7): rounds=%d now=%v, want 3, 7", e.Rounds(), e.Now())
	}
}

// expectedRounds counts the maintenance boundaries k with
// float64(k)*period <= now — the drift-free schedule's ground truth.
func expectedRounds(now, period float64) int64 {
	var k int64
	for float64(k+1)*period <= now {
		k++
	}
	return k
}

// TestAdvanceDriftFree advances with awkward (non-representable) periods
// and step sizes and checks the round counter against the integer-indexed
// schedule after every step: no boundary is ever skipped or double-fired.
// The old int(now/period)+1 recurrence fails this under accumulation.
func TestAdvanceDriftFree(t *testing.T) {
	for _, period := range []float64{0.1, 1.0 / 3.0, 0.7, 2} {
		cfg := testCfg()
		cfg.ValidatePeriod = period
		e := newEngine(t, testNet(30), cfg)
		steps := []float64{period, period / 3, 2 * period, period, 0.9999 * period, period / 7, 5 * period}
		for pass := 0; pass < 30; pass++ {
			dt := steps[pass%len(steps)]
			before := e.Rounds()
			e.Advance(dt)
			want := expectedRounds(e.Now(), period)
			if e.Rounds() != want {
				t.Fatalf("period %v: after step %d (dt=%v, now=%v): rounds=%d, want %d",
					period, pass, dt, e.Now(), e.Rounds(), want)
			}
			if e.Rounds() < before {
				t.Fatalf("round counter went backwards")
			}
		}
	}
}

// TestTopologyKindsGiveIdenticalRuns runs scenarios with dirty
// maintenance (which retains neighborhood views across refreshes) and
// checks after every refresh that the builder's snapshot equals the
// all-pairs reference over the network's positions, mask and link model,
// and that every view the substrate serves equals a fresh BFS over it —
// under both an unbounded and a capped (ViewCacheCap) Oracle. The mobile arm
// drives full rebuilds (most of the fleet moves every refresh); the
// churned arms drive incremental updates, whose adjacency diff decides
// which views are kept, scalar and directed (range spread plus
// partition-and-heal barrier toggles).
func TestTopologyKindsGiveIdenticalRuns(t *testing.T) {
	scenarios := map[string]func(*NetworkConfig){
		"mobile": func(nc *NetworkConfig) {
			nc.Mobility = RandomWaypoint
			nc.MinSpeed, nc.MaxSpeed, nc.Pause = 1, 10, 4
		},
		"churn": func(nc *NetworkConfig) { nc.ChurnMeanUp, nc.ChurnMeanDown = 20, 5 },
		"churn-directed": func(nc *NetworkConfig) {
			nc.ChurnMeanUp, nc.ChurnMeanDown = 20, 5
			nc.RangeSpread = 0.4
			nc.PartitionPeriod, nc.PartitionDuration = 5, 2
		},
	}
	for _, name := range []string{"mobile", "churn", "churn-directed"} {
		for _, cacheCap := range []int{0, 64} {
			nc := testNet(250)
			scenarios[name](&nc)
			nc.DirtyMaintenance = true
			nc.ViewCacheCap = cacheCap
			cfg := testCfg()
			e := newEngine(t, nc, cfg)
			e.SelectContacts()
			// Steps of half a validation period land on every maintenance
			// boundary, so every refresh is followed by a check.
			for step := 1; step <= 12; step++ {
				e.Advance(cfg.ValidatePeriod / 2)
				net := e.Network()
				if err := topotest.Diff(topotest.NaiveOf(net), net.Graph()); err != nil {
					t.Fatalf("%s cap %d, t=%v: %v", name, cacheCap, e.Now(), err)
				}
				checkViewsFresh(t, e)
			}
		}
	}
}

// checkViewsFresh compares every node's neighborhood view with a fresh
// R-bounded BFS over the current snapshot: members, hop distances and
// edge nodes (in BFS discovery order).
func checkViewsFresh(t *testing.T, e *Engine) {
	t.Helper()
	g, nb, r := e.Network().Graph(), e.Neighborhood(), e.Config().R
	for i := 0; i < g.N(); i++ {
		u := NodeID(i)
		bfs := g.BoundedBFS(u, r)
		members := slices.Clone(bfs.Visited)
		slices.Sort(members)
		var edges []NodeID
		for _, v := range bfs.Visited {
			if int(bfs.Dist[v]) == r {
				edges = append(edges, v)
			}
		}
		if got := nb.Members(u); !slices.Equal(got, members) {
			t.Fatalf("t=%v node %d: view members %v, fresh BFS %v", e.Now(), u, got, members)
		}
		if got := nb.EdgeNodes(u); !slices.Equal(got, edges) {
			t.Fatalf("t=%v node %d: view edge nodes %v, fresh BFS %v", e.Now(), u, got, edges)
		}
		for _, v := range members {
			if got := nb.Dist(u, v); got != int(bfs.Dist[v]) {
				t.Fatalf("t=%v node %d: view dist to %d = %d, fresh BFS %d", e.Now(), u, v, got, bfs.Dist[v])
			}
		}
	}
}

// TestNetworkConfigRejectsNonFinite pins that NaN and ±Inf in any float
// field of NetworkConfig fail construction instead of running a
// degenerate (typically linkless) field: range checks written as
// comparisons let NaN through on their own.
func TestNetworkConfigRejectsNonFinite(t *testing.T) {
	typ := reflect.TypeOf(NetworkConfig{})
	fields := 0
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		if f.Type.Kind() != reflect.Float64 {
			continue
		}
		fields++
		for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			nc := testNet(40)
			reflect.ValueOf(&nc).Elem().Field(i).SetFloat(bad)
			_, err := New(nc, testCfg())
			if err == nil {
				t.Errorf("%s = %v accepted", f.Name, bad)
			} else if !strings.Contains(err.Error(), f.Name) {
				t.Errorf("%s = %v: error %q does not name the field", f.Name, bad, err)
			}
		}
	}
	if fields < 20 {
		t.Fatalf("only %d float fields found; the table no longer covers NetworkConfig", fields)
	}
}

// TestBatchQueryMatchesSequential checks the core BatchQuery contract:
// same results and same message accounting as the serial loop. Run with
// -race to validate the read-only fan-out.
func TestBatchQueryMatchesSequential(t *testing.T) {
	build := func() *Engine {
		nc := testNet(300)
		e := newEngine(t, nc, testCfg())
		e.SelectContacts()
		return e
	}
	a, b := build(), build()
	pairs := a.RandomPairs(200, 5)
	batch := a.BatchQuery(pairs)
	seq := make([]proto.QueryResult, len(pairs))
	for i, p := range pairs {
		seq[i] = b.Query(p.Src, p.Dst)
	}
	for i := range batch {
		if batch[i] != seq[i] {
			t.Fatalf("pair %d: batch %+v != sequential %+v", i, batch[i], seq[i])
		}
	}
	if a.Messages() != b.Messages() {
		t.Errorf("accounting diverges: batch %+v, sequential %+v", a.Messages(), b.Messages())
	}
	// And a second batch on the same engine reproduces itself (scratch
	// state fully resets between queries).
	if again := a.BatchQuery(pairs); len(again) == len(batch) {
		for i := range again {
			if again[i] != batch[i] {
				t.Fatalf("re-run pair %d: %+v != %+v", i, again[i], batch[i])
			}
		}
	}
}

// TestBatchQueryDSDV exercises the fan-out over the DSDV substrate, whose
// Provider facade reads protocol tables rather than oracle views.
func TestBatchQueryDSDV(t *testing.T) {
	nc := testNet(150)
	nc.Proactive = DSDVProtocol
	e := newEngine(t, nc, testCfg())
	e.SelectContacts()
	pairs := e.RandomPairs(80, 3)
	res := e.BatchQuery(pairs)
	found := 0
	for _, r := range res {
		if r.Found {
			found++
		}
	}
	if found == 0 {
		t.Error("no batched queries resolved over the DSDV substrate")
	}
}

func TestBatchQueryEmpty(t *testing.T) {
	e := newEngine(t, testNet(50), testCfg())
	if got := e.BatchQuery(nil); len(got) != 0 {
		t.Errorf("BatchQuery(nil) = %v", got)
	}
}

func TestRandomPairGuards(t *testing.T) {
	// Two nodes far outside radio range: largest component is a singleton.
	nc := NetworkConfig{Nodes: 2, Width: 10000, Height: 10000, TxRange: 1, Seed: 3}
	e := newEngine(t, nc, proto.Config{R: 2, MaxContactDist: 6})
	p, ok := e.RandomPair(1)
	if ok {
		t.Error("degenerate component reported ok")
	}
	if p.Src != p.Dst {
		t.Errorf("degenerate pair = %+v, want src == dst", p)
	}
	if int(p.Src) < 0 || int(p.Src) >= 2 {
		t.Errorf("pair out of range: %+v", p)
	}
	if pairs := e.RandomPairs(10, 1); len(pairs) != 0 {
		t.Errorf("RandomPairs on degenerate component = %v, want empty", pairs)
	}
}

func TestRandomPairDistinct(t *testing.T) {
	e := newEngine(t, testNet(100), testCfg())
	for seed := uint64(0); seed < 50; seed++ {
		p, ok := e.RandomPair(seed)
		if !ok {
			t.Fatalf("seed %d: connected component reported degenerate", seed)
		}
		if p.Src == p.Dst {
			t.Fatalf("seed %d: src == dst == %d", seed, p.Src)
		}
	}
}

func TestPresetsRunnable(t *testing.T) {
	if len(Presets()) < 4 {
		t.Fatalf("expected >= 4 built-in presets, have %d", len(Presets()))
	}
	if _, err := LookupPreset("no-such-preset"); err == nil {
		t.Error("unknown preset lookup succeeded")
	}
	// Build each preset at a reduced node count so the test stays fast;
	// the full sizes are exercised by the scaling benchmarks.
	for _, p := range Presets() {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			nc := p.Net
			nc.Nodes = 120
			nc.Width, nc.Height = nc.Width/4, nc.Height/4
			e, err := New(nc, p.Protocol)
			if err != nil {
				t.Fatal(err)
			}
			e.SelectContacts()
			e.Advance(1)
			if pairs := e.RandomPairs(5, 1); len(pairs) > 0 {
				e.BatchQuery(pairs)
			}
		})
	}
}

func TestSchedulerExposed(t *testing.T) {
	e := newEngine(t, testNet(50), testCfg())
	fired := 0
	e.Scheduler().At(1.5, func(now float64) { fired++ })
	e.Advance(1)
	if fired != 0 {
		t.Fatal("custom event fired early")
	}
	e.Advance(1)
	if fired != 1 {
		t.Fatalf("custom event fired %d times, want 1", fired)
	}
}
