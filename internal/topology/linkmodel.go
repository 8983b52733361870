package topology

import "card/internal/geom"

// LinkModel describes the radio layer a connectivity snapshot is built
// from. The zero value is invalid; most scenarios set only Uniform, which
// reproduces the classic undirected unit-disk graph through the exact
// code path (and bit pattern) the scalar builders have always used.
//
// Setting Ranges or a barrier switches the graph into directed mode:
// there is an edge u→v iff dist(u,v) <= RangeOf(u) and the barrier (when
// active) does not separate u and v. Out- and in-adjacency are then
// maintained separately; a protocol-level hop additionally needs the
// reverse edge (see Graph.Bidirectional) because link-layer
// acknowledgements must travel back.
type LinkModel struct {
	// Uniform is the scalar transmission range in meters (> 0). With
	// Ranges set it only serves as documentation of the nominal range;
	// grid sizing and Graph.TxRange use the maximum of Ranges instead.
	Uniform float64

	// Ranges, when non-nil, gives node i its own transmission range
	// Ranges[i] (> 0, length = node count), producing asymmetric links
	// between nodes with different radios.
	Ranges []float64

	// BarrierX > 0 places a vertical barrier at x = BarrierX that, while
	// BarrierActive, cuts every link crossing it — the scheduled
	// partition-and-heal scenario. The cut is symmetric, so a barrier on
	// its own never creates one-way links. BarrierX <= 0 means no barrier
	// is configured.
	BarrierX      float64
	BarrierActive bool
}

// scalar reports whether lm is the plain uniform-range model with no
// barrier configured, i.e. whether the graph is undirected.
// A configured-but-inactive barrier still counts as directed so that a
// builder's snapshot shape stays stable across partition toggles.
func (lm LinkModel) scalar() bool { return lm.Ranges == nil && lm.BarrierX <= 0 }

// RangeOf returns node i's transmission range.
func (lm LinkModel) RangeOf(i int) float64 {
	if lm.Ranges == nil {
		return lm.Uniform
	}
	return lm.Ranges[i]
}

// Max returns the largest transmission range in the model — the grid cell
// size, and what Graph.TxRange reports for heterogeneous snapshots.
func (lm LinkModel) Max() float64 {
	if lm.Ranges == nil {
		return lm.Uniform
	}
	m := 0.0
	for _, r := range lm.Ranges {
		if r > m {
			m = r
		}
	}
	return m
}

// cuts reports whether the (active) barrier separates p and q.
func (lm LinkModel) cuts(p, q geom.Point) bool {
	return lm.BarrierActive && (p.X < lm.BarrierX) != (q.X < lm.BarrierX)
}

// validate panics on a malformed model: a range that is not positive
// (NaN included) or a Ranges slice of the wrong length.
func (lm LinkModel) validate(n int) {
	if lm.Ranges == nil {
		if !(lm.Uniform > 0) {
			panic("topology: non-positive transmission range")
		}
		return
	}
	if len(lm.Ranges) != n {
		panic("topology: LinkModel.Ranges length does not match node count")
	}
	for _, r := range lm.Ranges {
		if !(r > 0) {
			panic("topology: non-positive transmission range")
		}
	}
}
