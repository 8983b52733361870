package topology

import (
	"slices"

	"card/internal/geom"
)

// Builder is the only way a connectivity snapshot is built. It keeps its
// spatial-hash grid and adjacency lists alive between updates and
// reprocesses only the nodes that moved or flipped up/down state (plus
// their old and new neighbors). With m moved nodes of mean degree d an
// update costs O(m·d) instead of the O(N·d) of a from-scratch build,
// which is what makes slow-churn scenarios (pausing waypoints, static
// sensor fields with a few mobile collectors) cheap at any size. The first
// update, a partition toggle, and mass movement fall back to a full grid
// scan.
//
// One body serves every link model. Out-lists always come from one grid
// scan under the node's own range, filtered by the barrier. A directed
// model (per-node ranges or a configured barrier) also keeps in-lists,
// rescanned for moved nodes; under a plain uniform range the graph is
// undirected, in stays nil (Graph.InNeighbors returns the out-list), and
// the out-diff patches a stationary endpoint's own list.
//
// The Graph returned by an update aliases the Builder's internal storage
// and is invalidated by the next update. That matches how the simulator
// consumes snapshots — protocols re-fetch the graph from the network after
// every refresh, keyed by epoch — and avoids re-allocating O(N·d)
// adjacency every topology refresh.
type Builder struct {
	area geom.Rect
	// lm is the link model; txRange caches lm.Max(), the grid cell size.
	lm      LinkModel
	txRange float64
	grid    *geom.Grid
	pos     []geom.Point
	adj     [][]NodeID
	in      [][]NodeID // in-adjacency; nil for an undirected (scalar) model
	links   int
	// adjTotal is the out-degree sum Σ len(adj[i]) (= 2·links undirected,
	// = links directed), maintained as a delta by the incremental path so
	// updates never pay an O(N) recount.
	adjTotal int
	built    bool
	// barrierDirty forces the next update into a full rebuild after a
	// SetBarrier toggle, which flips arbitrarily many links at once.
	barrierDirty bool

	// down mirrors the exclusion mask of the last update: down nodes live
	// outside the grid and carry no links.
	down []bool

	// Generation-stamped scratch: avoids clearing O(N) marker arrays on
	// every update.
	gen        uint64
	movedStamp []uint64
	moved      []NodeID
	newAdj     []NodeID
	newIn      []NodeID // rescanned in-list of a moved node (directed only)

	// Changed-adjacency tracking for dirty-set consumers (engine
	// maintenance rounds, oracle view retention): after each update,
	// changed lists the nodes whose adjacency list differs from the
	// previous snapshot, unless changedAll marks a full (re)build where
	// every node must be assumed changed. See Changed.
	changedStamp []uint64
	changed      []NodeID
	changedAll   bool
}

// fullRebuildFraction is the moved-node fraction above which an update
// falls back to a full grid rebuild. The incremental path only pays for
// moved nodes and their neighborhoods (stationary lists are patched with
// O(degree) sorted inserts, never re-sorted), so it stays cheaper than a
// full rebuild until well past half the fleet moving at once.
const fullRebuildFraction = 0.6

// NewBuilder creates a builder for n nodes over area under the link model
// lm, which it validates (panicking on a malformed one). The first update
// performs a full build.
func NewBuilder(n int, area geom.Rect, lm LinkModel) *Builder {
	lm.validate(n)
	b := &Builder{
		area:         area,
		lm:           lm,
		txRange:      lm.Max(),
		pos:          make([]geom.Point, n),
		adj:          make([][]NodeID, n),
		down:         make([]bool, n),
		movedStamp:   make([]uint64, n),
		changedStamp: make([]uint64, n),
	}
	// Bucket by the maximum range: a one-ring scan around any node then
	// covers every candidate within any node's radius.
	b.grid = geom.NewGrid(area, b.txRange)
	if !lm.scalar() {
		b.in = make([][]NodeID, n)
	}
	return b
}

// SetBarrier toggles the partition barrier configured in the builder's
// link model (no-op without one, or when the state is unchanged). The
// next update performs a full rebuild — a partition event flips
// arbitrarily many links among stationary nodes at once, so every node is
// reported changed.
func (b *Builder) SetBarrier(active bool) {
	if b.lm.BarrierX <= 0 || b.lm.BarrierActive == active {
		return
	}
	b.lm.BarrierActive = active
	b.barrierDirty = true
}

// Update brings the graph to the given positions (length N) and
// node-exclusion mask, finding the moved nodes itself by comparing every
// position and mask bit — O(N) even when nothing moved. A node with
// down[i] true takes part in no links (its lists are empty and no other
// node lists it), modeling a churned-out device whose radio is off while
// its id and position persist; a nil mask means every node is up. The
// returned snapshot aliases builder storage and is invalidated by the next
// update.
func (b *Builder) Update(pos []geom.Point, down []bool) *Graph {
	return b.update(pos, down, nil, true)
}

// UpdateMoved is Update for callers that already know which nodes may have
// moved or flipped up/down state — a lazy mobility stepper
// (mobility.Stepper) reporting its moved list plus the churn flips. Only
// the listed nodes are checked, so a refresh where nothing moved costs
// O(1), whether moved is nil or empty. moved must be a superset of the
// nodes whose position or mask state changed since the previous update
// (duplicates are fine; entries that turn out unchanged are filtered
// here, keeping the moved set — and the full-rebuild fallback decision —
// identical to what Update would compute).
func (b *Builder) UpdateMoved(pos []geom.Point, down []bool, moved []NodeID) *Graph {
	return b.update(pos, down, moved, false)
}

// update is the single body behind Update and UpdateMoved: scanAll
// selects whether the moved set comes from comparing every node or from
// filtering the caller's list.
func (b *Builder) update(pos []geom.Point, down []bool, moved []NodeID, scanAll bool) *Graph {
	if len(pos) != len(b.pos) {
		panic("topology: Builder update with mismatched position count")
	}
	if down != nil && len(down) != len(b.pos) {
		panic("topology: Builder update with mismatched mask length")
	}
	b.changed, b.changedAll = b.changed[:0], false
	if !b.built || b.barrierDirty {
		b.fullBuild(pos, down)
		b.built = true
		return b.snapshot()
	}
	b.moved = b.moved[:0]
	if scanAll {
		for i, p := range pos {
			if p != b.pos[i] || isDown(down, i) != b.down[i] {
				b.moved = append(b.moved, NodeID(i))
			}
		}
	} else {
		b.gen++
		for _, m := range moved {
			if b.movedStamp[m] != b.gen && (pos[m] != b.pos[m] || isDown(down, int(m)) != b.down[m]) {
				b.movedStamp[m] = b.gen // dedupes the caller's list
				b.moved = append(b.moved, m)
			}
		}
	}
	switch {
	case len(b.moved) == 0:
	case float64(len(b.moved)) > fullRebuildFraction*float64(len(pos)):
		b.fullBuild(pos, down)
	default:
		b.incremental(pos, down)
	}
	return b.snapshot()
}

// fullBuild rebuilds grid and adjacency from scratch (reusing storage).
// In-lists are derived from the out-lists in one ascending pass, which
// leaves them sorted without a sort.
func (b *Builder) fullBuild(pos []geom.Point, down []bool) {
	b.barrierDirty = false
	copy(b.pos, pos)
	for i := range b.down {
		b.down[i] = isDown(down, i)
	}
	b.grid.Reset()
	for i, p := range b.pos {
		if !b.down[i] {
			b.grid.Insert(int32(i), p)
		}
	}
	b.adjTotal = 0
	for i := range b.adj {
		u := NodeID(i)
		adj := b.adj[u][:0]
		if !b.down[u] {
			adj = b.scanOut(u, adj)
		}
		b.adj[u] = adj
		b.adjTotal += len(adj)
	}
	if b.in != nil {
		for i := range b.in {
			b.in[i] = b.in[i][:0]
		}
		for u := range b.adj {
			for _, v := range b.adj[u] {
				b.in[v] = append(b.in[v], NodeID(u))
			}
		}
	}
	b.countLinks()
	b.changedAll = true
}

// scanOut appends to dst, sorted, every node u transmits to: an up node
// (the grid holds only those) within u's own range that no active barrier
// separates from u. It is the one grid scan that builds out-lists.
func (b *Builder) scanOut(u NodeID, dst []NodeID) []NodeID {
	pos, grid, lm := b.pos, b.grid, &b.lm
	barrier := lm.BarrierActive // hoisted: the scan is the builder's hot loop
	p := pos[u]
	r := lm.RangeOf(int(u))
	r2 := r * r
	x0, y0, x1, y1 := grid.BucketRange(p, r)
	for y := y0; y <= y1; y++ {
		for x := x0; x <= x1; x++ {
			for _, v := range grid.Bucket(x, y) {
				if q := pos[v]; v != u && p.Dist2(q) <= r2 && !(barrier && lm.cuts(p, q)) {
					dst = append(dst, v)
				}
			}
		}
	}
	slices.Sort(dst)
	return dst
}

// scanIn appends to dst, sorted, every up node whose own range reaches u
// and that no active barrier separates from u: a maximum-range scan
// filtered by each candidate's range.
func (b *Builder) scanIn(u NodeID, dst []NodeID) []NodeID {
	p := b.pos[u]
	x0, y0, x1, y1 := b.grid.BucketRange(p, b.txRange)
	for y := y0; y <= y1; y++ {
		for x := x0; x <= x1; x++ {
			for _, v := range b.grid.Bucket(x, y) {
				if v != u && !b.lm.cuts(p, b.pos[v]) {
					rv := b.lm.RangeOf(int(v))
					if p.Dist2(b.pos[v]) <= rv*rv {
						dst = append(dst, v)
					}
				}
			}
		}
	}
	slices.Sort(dst)
	return dst
}

// incremental applies a subset-dirty update: re-bucket the moved (and
// state-flipped) nodes, rescan their lists via the grid, and patch
// stationary nodes' lists only where an edge actually appeared or
// disappeared. At fine sensing rates a moving node's displacement per
// refresh is a fraction of the radio range, so its edge set is usually
// unchanged and the patching step does no work at all — the steady-state
// cost is the moved nodes' grid rescans.
//
// A moved node's out-list diff patches the stationary endpoint's in-list
// (its own list when undirected, where the two coincide); a directed
// model also rescans the moved node's in-list, whose diff patches the
// endpoint's out-list. Moved–moved edges need no patching — each
// endpoint's own rescans settle its lists. adjTotal (Σ out-degree) is
// carried as a delta: a moved node's own out-list contributes its length
// difference, and each stationary out-list splice contributes ±1.
func (b *Builder) incremental(pos []geom.Point, down []bool) {
	b.gen++
	gen := b.gen
	for _, m := range b.moved {
		b.movedStamp[m] = gen
	}

	// 1. Re-bucket the moved nodes at their new positions and states. Down
	// nodes live outside the grid entirely: a node that was up leaves the
	// grid, and only nodes that are (still or newly) up re-enter it.
	for _, m := range b.moved {
		if !b.down[m] {
			b.grid.Remove(int32(m), b.pos[m])
		}
		b.pos[m] = pos[m]
		b.down[m] = isDown(down, int(m))
		if !b.down[m] {
			b.grid.Insert(int32(m), b.pos[m])
		}
	}

	// 2. Rescan each moved node against the updated grid (a down node's
	// new lists are empty) and merge-diff old against new.
	outMirror := b.in // where an out-edge m→v is listed at v
	if outMirror == nil {
		outMirror = b.adj
	}
	for _, m := range b.moved {
		newOut, newIn := b.newAdj[:0], b.newIn[:0]
		if !b.down[m] {
			newOut = b.scanOut(m, newOut)
			if b.in != nil {
				newIn = b.scanIn(m, newIn)
			}
		}
		b.newAdj, b.newIn = newOut, newIn // keep the (possibly grown) scratch

		if old := b.adj[m]; !slices.Equal(old, newOut) {
			b.markChanged(m, gen)
			d := b.patch(m, old, newOut, outMirror, gen)
			if b.in == nil {
				b.adjTotal += d // the mirror was the stationary out-lists
			}
			b.adjTotal += len(newOut) - len(old)
			b.adj[m] = append(old[:0], newOut...)
		}
		if b.in == nil {
			continue
		}
		if old := b.in[m]; !slices.Equal(old, newIn) {
			b.markChanged(m, gen)
			b.adjTotal += b.patch(m, old, newIn, b.adj, gen)
			b.in[m] = append(old[:0], newIn...)
		}
	}
	b.countLinks()
}

// patch merge-diffs moved node m's old and new sorted lists and splices m
// out of (vanished edge) or into (new edge) mirror[v] for every stationary
// endpoint v, keeping each list sorted with O(degree) splices. It returns
// the net number of entries added to mirror.
func (b *Builder) patch(m NodeID, old, cur []NodeID, mirror [][]NodeID, gen uint64) (delta int) {
	i, j := 0, 0
	for i < len(old) || j < len(cur) {
		switch {
		case j == len(cur) || (i < len(old) && old[i] < cur[j]):
			if v := old[i]; b.movedStamp[v] != gen {
				mirror[v] = removeSorted(mirror[v], m)
				b.markChanged(v, gen)
				delta--
			}
			i++
		case i == len(old) || old[i] > cur[j]:
			if v := cur[j]; b.movedStamp[v] != gen {
				mirror[v] = insertSorted(mirror[v], m)
				b.markChanged(v, gen)
				delta++
			}
			j++
		default: // edge unchanged
			i++
			j++
		}
	}
	return delta
}

// markChanged records v in the changed-adjacency list of the update in
// progress, deduplicating via the shared generation stamp.
func (b *Builder) markChanged(v NodeID, gen uint64) {
	if b.changedStamp[v] != gen {
		b.changedStamp[v] = gen
		b.changed = append(b.changed, v)
	}
}

// Changed reports which nodes' adjacency lists (out or in) differ from
// the previous snapshot after the most recent update. all=true means the
// update was a full (re)build — the first build, a partition toggle, or
// the moved fraction exceeding the incremental threshold — and every node
// must be treated as changed (the list is then empty). Otherwise the list
// is exact and duplicate-free, in no particular order: a node not listed
// has byte-identical lists to the previous snapshot. The slice aliases
// builder scratch and is valid until the next update.
func (b *Builder) Changed() (changed []NodeID, all bool) {
	return b.changed, b.changedAll
}

// insertSorted adds x to the sorted slice a, keeping it sorted.
func insertSorted(a []NodeID, x NodeID) []NodeID {
	a = append(a, x)
	i := len(a) - 1
	for i > 0 && a[i-1] > x {
		a[i] = a[i-1]
		i--
	}
	a[i] = x
	return a
}

// removeSorted deletes x from the sorted slice a, keeping it sorted.
func removeSorted(a []NodeID, x NodeID) []NodeID {
	for i, v := range a {
		if v == x {
			copy(a[i:], a[i+1:])
			return a[:len(a)-1]
		}
	}
	return a
}

// countLinks derives the link count from the out-degree sum: directed
// edges for a directed model, undirected links (each listed at both ends)
// otherwise.
func (b *Builder) countLinks() {
	b.links = b.adjTotal
	if b.in == nil {
		b.links /= 2
	}
}

// snapshot wraps the builder's current state in a Graph header. The slices
// are shared, not copied; see the type comment for the lifetime contract.
func (b *Builder) snapshot() *Graph {
	return &Graph{
		pos:    b.pos,
		area:   b.area,
		rng:    b.txRange,
		ranges: b.lm.Ranges,
		adj:    b.adj,
		in:     b.in,
		links:  b.links,
	}
}
