// Package topotest holds the correctness reference for topology.Builder:
// the textbook O(N²) all-pairs scan over the same link model and
// node-exclusion mask, plus a structural comparison of snapshots. Tests
// at every layer (topology, manet, engine, the root facade) check the
// builder's snapshots against it; nothing outside tests builds a graph
// this way.
package topotest

import (
	"fmt"
	"slices"
	"testing"

	"card/internal/geom"
	"card/internal/topology"
)

// NodeID aliases the topology node index type.
type NodeID = topology.NodeID

// Ref is a reference snapshot computed by Naive.
type Ref struct {
	pos      []geom.Point
	lm       topology.LinkModel
	directed bool
	out, in  [][]NodeID
	links    int
}

// Naive builds the reference snapshot by testing every pair: u→v is an
// edge iff both are up, dist(u,v) <= lm.RangeOf(u), and no active barrier
// separates them. A nil mask means every node is up. Under a plain
// uniform range with no barrier the graph is undirected and Links counts
// undirected links; otherwise Links counts directed edges.
func Naive(pos []geom.Point, lm topology.LinkModel, down []bool) *Ref {
	n := len(pos)
	r := &Ref{
		pos:      append([]geom.Point(nil), pos...),
		lm:       lm,
		directed: lm.Ranges != nil || lm.BarrierX > 0,
		out:      make([][]NodeID, n),
		in:       make([][]NodeID, n),
	}
	up := func(i int) bool { return down == nil || !down[i] }
	cut := func(p, q geom.Point) bool {
		return lm.BarrierActive && (p.X < lm.BarrierX) != (q.X < lm.BarrierX)
	}
	edges := 0
	for i := 0; i < n; i++ {
		if !up(i) {
			continue
		}
		ri := lm.RangeOf(i)
		for j := i + 1; j < n; j++ {
			if !up(j) || cut(pos[i], pos[j]) {
				continue
			}
			d2 := pos[i].Dist2(pos[j])
			// Ascending appends on every list keep all four sorted.
			if d2 <= ri*ri {
				r.out[i] = append(r.out[i], NodeID(j))
				r.in[j] = append(r.in[j], NodeID(i))
				edges++
			}
			if rj := lm.RangeOf(j); d2 <= rj*rj {
				r.out[j] = append(r.out[j], NodeID(i))
				r.in[i] = append(r.in[i], NodeID(j))
				edges++
			}
		}
	}
	r.links = edges
	if !r.directed {
		r.links /= 2
	}
	return r
}

// Network is the read surface of a simulated network (manet.Network)
// that NaiveOf needs; an interface because manet's own tests import this
// package.
type Network interface {
	N() int
	Position(u NodeID) geom.Point
	Down(u NodeID) bool
	LinkModel() topology.LinkModel
}

// NaiveOf recomputes a network's current snapshot with Naive over its
// positions, mask and link model.
func NaiveOf(net Network) *Ref {
	pos := make([]geom.Point, net.N())
	down := make([]bool, net.N())
	for u := range pos {
		pos[u] = net.Position(NodeID(u))
		down[u] = net.Down(NodeID(u))
	}
	return Naive(pos, net.LinkModel(), down)
}

// Diff returns nil when got is structurally identical to want — node
// count, directedness, link count, and per node the position, range,
// sorted out-adjacency and sorted in-adjacency — and otherwise an error
// naming the first difference.
func Diff(want *Ref, got *topology.Graph) error {
	if len(want.pos) != got.N() {
		return fmt.Errorf("node count: want %d, got %d", len(want.pos), got.N())
	}
	if want.directed != got.Directed() {
		return fmt.Errorf("directed: want %v, got %v", want.directed, got.Directed())
	}
	if want.links != got.Links() {
		return fmt.Errorf("links: want %d, got %d", want.links, got.Links())
	}
	for i := range want.pos {
		u := NodeID(i)
		if want.pos[u] != got.Pos(u) {
			return fmt.Errorf("node %d position: want %v, got %v", u, want.pos[u], got.Pos(u))
		}
		if r := want.lm.RangeOf(i); r != got.RangeOf(u) {
			return fmt.Errorf("node %d range: want %v, got %v", u, r, got.RangeOf(u))
		}
		if w, g := want.out[u], got.Neighbors(u); !slices.Equal(w, g) {
			return fmt.Errorf("node %d adjacency: want %v, got %v", u, w, g)
		}
		if w, g := want.in[u], got.InNeighbors(u); !slices.Equal(w, g) {
			return fmt.Errorf("node %d in-adjacency: want %v, got %v", u, w, g)
		}
	}
	return nil
}

// Equal fails tb unless got is structurally identical to want (see Diff).
func Equal(tb testing.TB, want *Ref, got *topology.Graph) {
	tb.Helper()
	if err := Diff(want, got); err != nil {
		tb.Fatal(err)
	}
}
