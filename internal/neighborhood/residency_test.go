package neighborhood

import (
	"reflect"
	"slices"
	"testing"

	"card/internal/manet"
	"card/internal/mobility"
	"card/internal/par"
	"card/internal/xrand"
)

// mobileNet builds a random-waypoint network whose refreshes actually move
// edges, so epoch bumps and Retain calls are exercised for real.
func mobileNet(seed uint64, n int) *manet.Network {
	m, err := mobility.NewRandomWaypoint(n, area, mobility.RWPConfig{
		MinSpeed: 5, MaxSpeed: 15, Pause: 0,
	}, xrand.New(seed))
	if err != nil {
		panic(err)
	}
	return manet.New(m, 100, xrand.New(seed+1))
}

// checkProvidersAgree asserts every lookup of the Provider interface is
// bit-identical between the two providers for every (u, x) pair.
func checkProvidersAgree(t *testing.T, a, b Provider, n int) {
	t.Helper()
	for u := NodeID(0); int(u) < n; u++ {
		if got, want := b.Members(u), a.Members(u); !reflect.DeepEqual(got, want) {
			t.Fatalf("Members(%d): %v vs %v", u, got, want)
		}
		if got, want := b.EdgeNodes(u), a.EdgeNodes(u); !reflect.DeepEqual(got, want) {
			t.Fatalf("EdgeNodes(%d): %v vs %v", u, got, want)
		}
		for x := NodeID(0); int(x) < n; x++ {
			if got, want := b.Contains(u, x), a.Contains(u, x); got != want {
				t.Fatalf("Contains(%d,%d): %v vs %v", u, x, got, want)
			}
			if got, want := b.Dist(u, x), a.Dist(u, x); got != want {
				t.Fatalf("Dist(%d,%d): %d vs %d", u, x, got, want)
			}
			if got, want := b.Route(u, x), a.Route(u, x); !reflect.DeepEqual(got, want) {
				t.Fatalf("Route(%d,%d): %v vs %v", u, x, got, want)
			}
			// AppendRoute extends a caller's buffer by exactly Route.
			for _, p := range []Provider{a, b} {
				prefix := NodeID(n)
				got := p.AppendRoute([]NodeID{prefix}, u, x)
				if want := append([]NodeID{prefix}, p.Route(u, x)...); !reflect.DeepEqual(got, want) {
					t.Fatalf("%T.AppendRoute(%d,%d): %v, want %v", p, u, x, got, want)
				}
			}
		}
	}
}

// resident counts the views an Oracle holds and checks the residency
// invariant the cap rests on: every resident view's id is recorded in the
// ring.
func resident(t *testing.T, o *Oracle) int {
	t.Helper()
	n := 0
	for i := range o.slots {
		if o.slots[i].Load() == nil {
			continue
		}
		n++
		if o.ring != nil && !slices.Contains(o.ring[:o.filled], NodeID(i)) {
			t.Fatalf("node %d's view is resident but not recorded in the ring", i)
		}
	}
	return n
}

// TestViewCacheMatchesOracle pins the bit-identical-lookups contract: an
// Oracle whose cap forces constant eviction and recompute must answer
// every query exactly like an unbounded one, across topology refreshes
// (epoch wipes) on the same network.
func TestViewCacheMatchesOracle(t *testing.T) {
	const n = 60
	net := mobileNet(7, n)
	o := NewOracle(net, 2, 0)
	// Cap 1: nearly every lookup evicts something.
	c := NewOracle(net, 2, 1)
	for step := 0; step <= 3; step++ {
		if step > 0 {
			net.RefreshAt(float64(step))
		}
		checkProvidersAgree(t, o, c, n)
	}
}

// TestViewCacheRetain pins the Retain half, capped and unbounded: after a
// refresh, retaining all-but-changed views (the dirty-engine pattern)
// must still answer bit-identically to a fresh Oracle over the new
// snapshot — including for the retained (not recomputed) entries.
func TestViewCacheRetain(t *testing.T) {
	const n = 40
	for _, cap := range []int{0, n / 2} {
		net := lineNet(n) // static: empty adjacency diff, so Retain(nil) is sound
		c := NewOracle(net, 2, cap)
		for u := NodeID(0); int(u) < n; u++ {
			c.Members(u) // materialize everything the cap allows
		}
		net.RefreshAt(1) // epoch bump, no movement
		c.Retain(nil)
		want := n
		if cap > 0 {
			want = cap
		}
		if got := resident(t, c); got != want {
			t.Fatalf("cap %d: Retain(nil) kept %d views, want %d", cap, got, want)
		}
		checkProvidersAgree(t, NewOracle(net, 2, 0), c, n)

		// Dropping a subset must recompute exactly those on demand.
		net.RefreshAt(2)
		c.Retain([]NodeID{3, 17, 17, 31}) // duplicates are harmless
		checkProvidersAgree(t, NewOracle(net, 2, 0), c, n)
	}
}

// TestViewCacheCapacity pins the residency bound: a capped Oracle never
// holds more views than its cap, however many are read, across refreshes
// with and without Retain.
func TestViewCacheCapacity(t *testing.T) {
	const n = 300
	net := mobileNet(3, n)
	const cap = 64
	c := NewOracle(net, 2, cap)
	for step := 0; step <= 3; step++ {
		if step > 0 {
			net.RefreshAt(float64(step))
		}
		if step == 2 {
			c.Retain([]NodeID{0, 5, 5, 299}) // drops leave stale ring records
		}
		for u := NodeID(0); int(u) < n; u++ {
			c.Members(u)
			if got := resident(t, c); got > cap {
				t.Fatalf("step %d: %d resident views after reading node %d, cap %d", step, got, u, cap)
			}
		}
		if got := resident(t, c); got != cap {
			t.Fatalf("step %d: %d resident views after reading all %d nodes, want the cap %d", step, got, n, cap)
		}
	}
}

// TestCappedWarmAllComputesNoView pins what WarmAll does, capped and
// unbounded: it is the Warmer the engine calls before every fan-out, and
// it only syncs the epoch — on a fresh Oracle it computes nothing, and
// after a refresh nobody retained it wipes every view instead of
// recomputing them.
func TestCappedWarmAllComputesNoView(t *testing.T) {
	const n = 50
	for _, cap := range []int{0, 8} {
		net := lineNet(n)
		var p Provider = NewOracle(net, 1, cap)
		w, ok := p.(Warmer)
		if !ok {
			t.Fatal("Oracle does not implement Warmer")
		}
		c := p.(*Oracle)
		w.WarmAll()
		if got := resident(t, c); got != 0 {
			t.Fatalf("cap %d: WarmAll on a fresh Oracle computed %d views", cap, got)
		}
		for u := NodeID(0); int(u) < n; u++ {
			c.Members(u)
		}
		net.RefreshAt(1)
		w.WarmAll()
		if got := resident(t, c); got != 0 {
			t.Fatalf("cap %d: %d views survived WarmAll after an unretained refresh", cap, got)
		}
	}
}

// TestConcurrentReadsAfterWarmAll fans readers across a capped and an
// unbounded Oracle right after WarmAll — the engine's fan-out pattern,
// where workers compute and install views on first read — and matches
// every lookup against a serial reference. Run with -race (CI does) to
// validate the slot and ring publication.
func TestConcurrentReadsAfterWarmAll(t *testing.T) {
	const n = 120
	net := mobileNet(11, n)
	type lookup struct {
		members, edges, route []NodeID
		dist                  int
	}
	read := func(p Provider, u NodeID) lookup {
		x := NodeID((int(u)*7 + 3) % n)
		return lookup{p.Members(u), p.EdgeNodes(u), p.Route(u, x), p.Dist(u, x)}
	}
	now := 0.0
	for _, cap := range []int{0, 10} {
		o := NewOracle(net, 2, cap)
		for step := 0; step <= 2; step++ {
			if step > 0 {
				now++
				net.RefreshAt(now)
			}
			o.WarmAll()
			got := make([]lookup, 4*n)
			par.Do(len(got), func(i int) { got[i] = read(o, NodeID(i%n)) })
			ref := NewOracle(net, 2, 0)
			for i, g := range got {
				if want := read(ref, NodeID(i%n)); !reflect.DeepEqual(g, want) {
					t.Fatalf("cap %d step %d node %d: concurrent %+v, serial %+v", cap, step, i%n, g, want)
				}
			}
		}
	}
}
