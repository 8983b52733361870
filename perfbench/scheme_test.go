package main

import (
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"card/internal/engine"
	"card/internal/workload"
)

// smallEngine is a warmed 1000-node random-waypoint engine.
func smallEngine(t *testing.T, seed uint64) *engine.Engine {
	t.Helper()
	p, err := engine.LookupPreset("citywide-rwp-1k")
	if err != nil {
		t.Fatal(err)
	}
	e, err := p.New(seed)
	if err != nil {
		t.Fatal(err)
	}
	e.SelectContacts()
	return e
}

func smallTraffic() workload.Config {
	return workload.Config{QPS: 60, Duration: 5, Tick: tick, Resources: 64, Replicas: 2, ZipfS: 0.9, Seed: 11}
}

// The timing decorator and the traced driver change no outcome: over a
// two-chunk window the per-query streams, the reports, the message totals
// and the protocol statistics equal those of plain card through
// engine.RunWorkload.
func TestTracedRunMatchesPlainCard(t *testing.T) {
	chunks := []workload.Config{smallTraffic(), smallTraffic()}
	chunks[1].Seed = 12
	plain, traced := smallEngine(t, 3), smallEngine(t, 3)
	tr, err := newTracer()
	if err != nil {
		t.Fatal(err)
	}
	executed := 0
	for _, cfg := range chunks {
		cfg.KeepOutcomes = true
		want, err := plain.RunWorkload(cfg)
		if err != nil {
			t.Fatal(err)
		}
		got, err := tr.runTraced(traced, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.HasPrefix(got.Scheme, "card-traced-") {
			t.Fatalf("traced run used scheme %q", got.Scheme)
		}
		if len(want.Outcomes) == 0 || !reflect.DeepEqual(got.Outcomes, want.Outcomes) {
			t.Fatalf("outcome streams differ (%d vs %d queries)", len(got.Outcomes), len(want.Outcomes))
		}
		got.Scheme, got.Config.Scheme = want.Scheme, want.Config.Scheme
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("reports differ:\n got %+v\nwant %+v", got, want)
		}
		executed += want.Queries - want.SrcDown
	}
	if plain.Messages() != traced.Messages() || plain.Stats() != traced.Stats() {
		t.Fatalf("counters differ: %+v / %+v vs %+v / %+v", traced.Messages(), traced.Stats(), plain.Messages(), plain.Stats())
	}

	if n, want := len(tr.ticks), 2*int(chunks[0].Duration/tick); n != want {
		t.Errorf("traced %d ticks, want %d", n, want)
	}
	spans := 0
	for _, w := range tr.discovers() {
		spans += len(w)
	}
	if spans != executed {
		t.Errorf("%d discover spans for %d executed queries", spans, executed)
	}
	a, err := attribute(tr.window, tr.ticks, tr.discovers())
	if err != nil {
		t.Fatal(err)
	}
	if a.sum() != a.Window || a.Scheme <= 0 || a.Engine <= 0 {
		t.Errorf("attribution %+v", a)
	}
	if err := tr.write(filepath.Join(t.TempDir(), "spans.json")); err != nil {
		t.Fatal(err)
	}
}

// Identical inputs give identical digests; another seed or another
// outcome gives another.
func TestDigestStable(t *testing.T) {
	digest := func(seed uint64) string {
		e := smallEngine(t, seed)
		rep, err := e.RunWorkload(smallTraffic())
		if err != nil {
			t.Fatal(err)
		}
		reps, reach := []*workload.Report{rep}, reachSample(e, seed)
		d := outcomeDigest(e, reps, reach)
		if again := outcomeDigest(e, reps, reach); again != d {
			t.Fatalf("digest of one state changed: %s then %s", d, again)
		}
		rep.Found++
		if bumped := outcomeDigest(e, reps, reach); bumped == d {
			t.Fatal("digest ignores the report's found count")
		}
		return d
	}
	if d1, d2 := digest(3), digest(3); d1 != d2 {
		t.Fatalf("same seed, different digests: %s and %s", d1, d2)
	}
	if d1, d3 := digest(3), digest(4); d1 == d3 {
		t.Fatalf("seeds 3 and 4 share digest %s", d1)
	}
}

func TestLedgerCatchesDisagreement(t *testing.T) {
	dir := t.TempDir()
	if err := checkLedger(dir, "w", 1, 10, "aaaa"); err != nil {
		t.Fatal(err)
	}
	if err := checkLedger(dir, "w", 1, 10, "aaaa"); err != nil {
		t.Fatalf("same digest rejected: %v", err)
	}
	if err := checkLedger(dir, "w", 2, 10, "bbbb"); err != nil {
		t.Fatalf("another seed rejected: %v", err)
	}
	if err := checkLedger(dir, "w", 1, 10, "bbbb"); err == nil {
		t.Fatal("a different digest for the same workload and seed was accepted")
	}
}

func TestTrafficChunks(t *testing.T) {
	s, err := lookupSpec(wHetero)
	if err != nil {
		t.Fatal(err)
	}
	a, b := s.traffic(1, 10), s.traffic(1, 10)
	if len(a) != 4 || !reflect.DeepEqual(a, b) {
		t.Fatalf("traffic(1, 10) gave %d chunks, or differed between calls", len(a))
	}
	seen := map[uint64]bool{}
	for _, c := range a {
		if c.Duration != chunk || seen[c.Seed] {
			t.Fatalf("chunk %+v: want %g s and a fresh seed", c, chunk)
		}
		seen[c.Seed] = true
	}
	if other := s.traffic(2, 10); other[0].Seed == a[0].Seed {
		t.Fatal("seeds 1 and 2 start with the same traffic seed")
	}
}

func TestWindowsStayInRegime(t *testing.T) {
	for _, c := range []struct {
		name    string
		seconds int
		end     float64
	}{
		{wGroups, 10, 16}, {wGroups, 30, 50}, {wGroups, 1, 8},
		{wHetero, 10, 46}, {wHetero, 60, 58},
		{wRWP, 10, 58}, {wRWP, 1, 44},
	} {
		s, err := lookupSpec(c.name)
		if err != nil {
			t.Fatal(err)
		}
		if got := s.windowEnd(c.seconds); got != c.end {
			t.Errorf("%s at %ds: window ends at %g, want %g", c.name, c.seconds, got, c.end)
		}
	}
}
