package engine

import (
	"reflect"
	"runtime"
	"slices"
	"testing"

	proto "card/internal/card"
	"card/internal/neighborhood"
)

// dirtyNet is the mobile scenario the dirty-set tests share: fast, dense,
// pause-free random waypoint, so every refresh moves edges somewhere in
// the (single, well-connected) component and the r-hop expansion reaches
// everyone — the all-dirty regime.
func dirtyNet(nodes int) NetworkConfig {
	nc := testNet(nodes)
	nc.Mobility = RandomWaypoint
	nc.MinSpeed, nc.MaxSpeed, nc.Pause = 5, 15, 0
	nc.DirtyMaintenance = true
	return nc
}

// runDirtyTrace mirrors runMaintTrace with DirtyMaintenance enabled.
func runDirtyTrace(t *testing.T, nc NetworkConfig, workers, procs int) maintSnapshot {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	e := newEngine(t, nc, testCfg())
	e.SetMaintainWorkers(workers)
	s := maintSnapshot{added: e.SelectContacts()}
	e.Advance(8) // four maintenance rounds under mobility
	p := e.Protocol()
	s.tables = make([][]proto.Contact, e.Nodes())
	for u := 0; u < e.Nodes(); u++ {
		for _, c := range p.Table(NodeID(u)).Contacts() {
			cp := c
			cp.Path = append([]NodeID(nil), c.Path...)
			s.tables[u] = append(s.tables[u], cp)
		}
	}
	s.stats = e.Stats()
	s.msgs = e.Messages()
	s.reach = e.MeanReachability(1)
	return s
}

// TestDirtyParallelEquivalence extends the round fan-out contract to
// restricted rounds: with DirtyMaintenance on, the sharded dirty-list
// rounds must be bit-identical to the serial dirty-list loop — tables,
// stats, accounting and reachability — at several worker bounds and
// GOMAXPROCS settings. Run with -race (CI does) to validate the sharding.
func TestDirtyParallelEquivalence(t *testing.T) {
	base := runDirtyTrace(t, dirtyNet(400), 1, 1)
	cases := []struct {
		name           string
		workers, procs int
	}{
		{"workers4-procs1", 4, 1},
		{"workers4-procs4", 4, 4},
		{"auto-procs4", 0, 4},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			got := runDirtyTrace(t, dirtyNet(400), c.workers, c.procs)
			if got.added != base.added {
				t.Errorf("initial selection added %d contacts, serial added %d", got.added, base.added)
			}
			if got.stats != base.stats {
				t.Errorf("stats diverge:\n got  %+v\n want %+v", got.stats, base.stats)
			}
			if got.msgs != base.msgs {
				t.Errorf("message totals diverge:\n got  %+v\n want %+v", got.msgs, base.msgs)
			}
			if got.reach != base.reach {
				t.Errorf("reachability diverges: %v vs %v", got.reach, base.reach)
			}
			for u := range base.tables {
				if !reflect.DeepEqual(got.tables[u], base.tables[u]) {
					t.Fatalf("node %d contact table diverges:\n got  %+v\n want %+v",
						u, got.tables[u], base.tables[u])
				}
			}
		})
	}
}

// TestDirtyParallelEquivalenceChurn repeats the dirty equivalence contract
// under node churn: expiry victims drop below NoC and must re-enter the
// round list identically on the serial and sharded paths.
func TestDirtyParallelEquivalenceChurn(t *testing.T) {
	nc := dirtyNet(300)
	nc.ChurnMeanUp, nc.ChurnMeanDown = 20, 5
	base := runDirtyTrace(t, nc, 1, 1)
	got := runDirtyTrace(t, nc, 4, 4)
	if got.stats != base.stats {
		t.Errorf("stats diverge:\n got  %+v\n want %+v", got.stats, base.stats)
	}
	if got.msgs != base.msgs {
		t.Errorf("message totals diverge:\n got  %+v\n want %+v", got.msgs, base.msgs)
	}
	for u := range base.tables {
		if !reflect.DeepEqual(got.tables[u], base.tables[u]) {
			t.Fatalf("node %d contact table diverges", u)
		}
	}
}

// TestDirtyMatchesFullWhenAllDirty is the dirty-vs-full regression test:
// on a scenario whose every refresh dirties the whole network (fast dense
// pause-free mobility — one moved edge anywhere in the connected component
// expands to everyone within max(R, MaxContactDist) hops), the restricted
// rounds must reproduce the full rounds bit-for-bit: contact tables,
// protocol statistics, per-category message totals (validation traffic
// included — nothing was skipped because nothing was clean) and
// reachability. LastRoundNodes is asserted per round so the scenario
// cannot silently stop exercising the all-dirty case.
func TestDirtyMatchesFullWhenAllDirty(t *testing.T) {
	ncDirty := dirtyNet(400)
	ncFull := ncDirty
	ncFull.DirtyMaintenance = false
	cfg := testCfg() // ValidatePeriod 2

	ed := newEngine(t, ncDirty, cfg)
	ef := newEngine(t, ncFull, cfg)
	if a, b := ed.SelectContacts(), ef.SelectContacts(); a != b {
		t.Fatalf("initial selection diverges: dirty %d, full %d", a, b)
	}
	for round := 1; round <= 4; round++ {
		ed.Advance(cfg.ValidatePeriod)
		ef.Advance(cfg.ValidatePeriod)
		if got, n := ed.LastRoundNodes(), ed.Nodes(); got != n {
			t.Fatalf("round %d processed %d/%d nodes — scenario no longer keeps every node dirty, the comparison below would be vacuous", round, got, n)
		}
		if ed.Stats() != ef.Stats() {
			t.Fatalf("round %d stats diverge:\n dirty %+v\n full  %+v", round, ed.Stats(), ef.Stats())
		}
		if ed.Messages() != ef.Messages() {
			t.Fatalf("round %d message totals diverge:\n dirty %+v\n full  %+v", round, ed.Messages(), ef.Messages())
		}
	}
	pd, pf := ed.Protocol(), ef.Protocol()
	for u := 0; u < ed.Nodes(); u++ {
		if !reflect.DeepEqual(pd.Table(NodeID(u)).Contacts(), pf.Table(NodeID(u)).Contacts()) {
			t.Fatalf("node %d contact table diverges:\n dirty %+v\n full  %+v",
				u, pd.Table(NodeID(u)).Contacts(), pf.Table(NodeID(u)).Contacts())
		}
	}
	if a, b := ed.MeanReachability(1), ef.MeanReachability(1); a != b {
		t.Fatalf("reachability diverges: dirty %v, full %v", a, b)
	}
}

// TestDirtyRestrictsQuietRounds pins the optimization itself: on a static
// network nothing is ever dirtied, so once tables have filled, maintenance
// rounds must process only the below-NoC stragglers — a strict subset of
// the network — and skip their validation traffic.
func TestDirtyRestrictsQuietRounds(t *testing.T) {
	nc := testNet(400)
	nc.DirtyMaintenance = true
	e := newEngine(t, nc, testCfg())
	e.SelectContacts()
	before := e.Messages().Validation
	e.Advance(8)
	if last := e.LastRoundNodes(); last >= e.Nodes() {
		t.Errorf("static round processed %d/%d nodes — dirty restriction inert", last, e.Nodes())
	}
	// The skipped nodes' trivially-successful validation walks must not
	// have been simulated: validation traffic stays below what even one
	// full static round would charge (sum of all stored path hops).
	var fullRound int64
	p := e.Protocol()
	for u := 0; u < e.Nodes(); u++ {
		for _, c := range p.Table(NodeID(u)).Contacts() {
			fullRound += int64(c.Hops())
		}
	}
	if grew := e.Messages().Validation - before; grew >= 4*fullRound && fullRound > 0 {
		t.Errorf("4 static dirty rounds charged %d validation hops (full rounds would charge ~%d) — skipping inert", grew, 4*fullRound)
	}
}

// TestDirtyMatchesFullOnStaticField pins the other regime of the
// dirty-vs-full contract: on a static field nothing is dirtied once the
// tables fill, so dirty rounds process only the below-NoC stragglers.
// They must leave exactly the contact ids and paths full rounds leave —
// a clean node's round is a no-op — while charging strictly less
// validation traffic, the clean nodes' skipped walks. The lossy arm keeps
// the claim honest under retransmissions and lost hops.
func TestDirtyMatchesFullOnStaticField(t *testing.T) {
	for _, loss := range []float64{0, 0.3} {
		ncFull := testNet(400)
		if loss > 0 {
			ncFull.Loss, ncFull.LossRetries = loss, 1
		}
		ncDirty := ncFull
		ncDirty.DirtyMaintenance = true
		cfg := testCfg() // ValidatePeriod 2
		ed, ef := newEngine(t, ncDirty, cfg), newEngine(t, ncFull, cfg)
		ed.SelectContacts()
		ef.SelectContacts()
		ed.Advance(10)
		ef.Advance(10)
		if got, n := ed.LastRoundNodes(), ed.Nodes(); got >= n {
			t.Fatalf("loss %v: last dirty round processed %d/%d nodes — no clean node was skipped, the comparison below would be vacuous", loss, got, n)
		}
		for u := 0; u < ed.Nodes(); u++ {
			cd, cf := ed.Protocol().Table(NodeID(u)).Contacts(), ef.Protocol().Table(NodeID(u)).Contacts()
			if len(cd) != len(cf) {
				t.Fatalf("loss %v node %d: dirty keeps %d contacts, full %d", loss, u, len(cd), len(cf))
			}
			for i := range cd {
				if cd[i].ID != cf[i].ID || !slices.Equal(cd[i].Path, cf[i].Path) {
					t.Fatalf("loss %v node %d contact %d: dirty %d via %v, full %d via %v",
						loss, u, i, cd[i].ID, cd[i].Path, cf[i].ID, cf[i].Path)
				}
			}
		}
		if vd, vf := ed.Messages().Validation, ef.Messages().Validation; vd >= vf {
			t.Errorf("loss %v: dirty rounds charged %d validation hops, full rounds %d — want strictly fewer", loss, vd, vf)
		}
		if loss > 0 && ef.Messages().Retry == 0 {
			t.Errorf("loss %v: full rounds retransmitted nothing — the lossy arm lost no hop", loss)
		}
	}
}

// TestDirtyOracleRetention checks the view-retention half of the dirty
// machinery: after a mobile dirty-mode run, every retained neighborhood
// view must equal what a fresh oracle computes from scratch on the same
// snapshot.
func TestDirtyOracleRetention(t *testing.T) {
	e := newEngine(t, dirtyNet(300), testCfg())
	e.SelectContacts()
	for step := 0; step < 6; step++ {
		e.Advance(1.5) // off-period steps: refreshes with and without rounds
		fresh := neighborhood.NewOracle(e.Network(), e.Config().R, 0)
		for u := 0; u < e.Nodes(); u++ {
			got := e.Neighborhood().Members(NodeID(u))
			want := fresh.Members(NodeID(u))
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("step %d node %d: retained view %v, fresh view %v", step, u, got, want)
			}
		}
	}
}
