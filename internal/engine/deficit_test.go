package engine

import (
	"reflect"
	"runtime"
	"slices"
	"testing"
)

// scanDeficit is the reference the incremental deficit bitset replaced:
// the O(N) table-length scan. The tests below rebuild it after every tick
// and demand bit-equality, so any missed shrink/grow hook fails loudly.
func scanDeficit(e *Engine) []NodeID {
	var out []NodeID
	noc := e.cfg.NoC
	for u := 0; u < e.Nodes(); u++ {
		if e.prot.Table(NodeID(u)).Len() < noc {
			out = append(out, NodeID(u))
		}
	}
	return out
}

// deficitList reads the engine's deficit bitset ascending.
func deficitList(e *Engine) []NodeID {
	var out []NodeID
	for u := 0; u < e.Nodes(); u++ {
		if e.deficit.Contains(u) {
			out = append(out, NodeID(u))
		}
	}
	return out
}

// refRoundList is the round list the old full-scan implementation built:
// one ascending id-order pass appending dirty-accumulated nodes and
// below-NoC tables.
func refRoundList(e *Engine) []NodeID {
	var out []NodeID
	noc := e.cfg.NoC
	for u := 0; u < e.Nodes(); u++ {
		if e.dirtyAcc.Contains(u) || e.prot.Table(NodeID(u)).Len() < noc {
			out = append(out, NodeID(u))
		}
	}
	return out
}

// TestDeficitMatchesTableScan pins the deficit invariant under the full
// mutation surface — mobility-driven rounds, churn expiry, cold
// readmission — at serial and sharded worker settings: after every tick
// the incrementally maintained deficit bitset must equal the table-length
// scan, and the merged round list must equal what the old one-pass scan
// would have produced.
func TestDeficitMatchesTableScan(t *testing.T) {
	cases := []struct {
		name           string
		workers, procs int
	}{
		{"serial-procs1", 1, 1},
		{"workers4-procs4", 4, 4},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(c.procs))
			nc := dirtyNet(300)
			nc.ChurnMeanUp, nc.ChurnMeanDown = 20, 5
			cfg := testCfg()
			e := newEngine(t, nc, cfg)
			e.SetMaintainWorkers(c.workers)
			e.SelectContacts()
			for tick := 1; tick <= 8; tick++ {
				e.Advance(cfg.ValidatePeriod)
				got, want := deficitList(e), scanDeficit(e)
				if !slices.Equal(got, want) {
					t.Fatalf("tick %d: deficit bitset %v, table scan %v", tick, got, want)
				}
				if e.dirtyAll {
					continue // next round takes the full path; no list to compare
				}
				if got, want := e.dirtyRoundList(), refRoundList(e); !slices.Equal(got, want) {
					t.Fatalf("tick %d: merged round list %v, full-scan list %v", tick, got, want)
				}
			}
		})
	}
}

// TestDeficitChurnEquivalence is the black-box half: under churn AND
// mobility, the deficit-driven engine must stay bit-identical between the
// serial and sharded paths — round lists (sizes), tables, stats and
// recorder totals. (runDirtyTrace compares tables/stats/msgs/reach; the
// per-round list equality is covered white-box above.)
func TestDeficitChurnEquivalence(t *testing.T) {
	nc := dirtyNet(250)
	nc.ChurnMeanUp, nc.ChurnMeanDown = 15, 5
	base := runDirtyTrace(t, nc, 1, 1)
	got := runDirtyTrace(t, nc, 4, 4)
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
			t.Fatalf("node %d contact table diverges", u)
		}
	}
}

// TestViewCacheEngineEquivalence runs the same dirty churn+mobility trace
// with a capped neighborhood Oracle (ViewCacheCap) in place of the
// unbounded one: every table, statistic and message total must be
// bit-identical — neighborhood views are pure functions of the snapshot,
// so the residency policy must be invisible to results.
func TestViewCacheEngineEquivalence(t *testing.T) {
	nc := dirtyNet(250)
	nc.ChurnMeanUp, nc.ChurnMeanDown = 15, 5
	base := runDirtyTrace(t, nc, 1, 1)
	cached := nc
	cached.ViewCacheCap = 70 // well below 250 nodes: constant eviction
	for _, c := range []struct {
		name           string
		workers, procs int
	}{
		{"serial", 1, 1},
		{"workers4-procs4", 4, 4},
	} {
		c := c
		t.Run(c.name, func(t *testing.T) {
			got := runDirtyTrace(t, cached, c.workers, c.procs)
			if got.added != base.added {
				t.Errorf("initial selection added %d contacts, oracle added %d", got.added, base.added)
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
					t.Fatalf("node %d contact table diverges", u)
				}
			}
		})
	}
}
