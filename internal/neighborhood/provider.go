// Package neighborhood implements the R-hop proactive zone that every CARD
// node maintains: "each node proactively (using a protocol such as DSDV)
// maintains state for all the nodes in its neighborhood" (§III.C).
//
// Two providers are offered:
//
//   - [Oracle] — the converged view: R-hop BFS over the current topology
//     snapshot, computed on first read and kept per network epoch, with an
//     optional cap on how many views stay resident (the 1M-node preset
//     uses one; lookups are identical either way). This matches how the
//     paper's analysis treats the neighborhood (its overhead metrics
//     deliberately exclude proactive-update traffic), and is the default
//     for experiment runs.
//   - [DSDV] — an actual scoped destination-sequenced distance-vector
//     protocol: per-destination sequence numbers, periodic full dumps,
//     triggered updates on link breaks, hop-limited to R. It exists to
//     demonstrate and test the substrate end to end; on a static network it
//     provably converges to the Oracle view.
package neighborhood

import (
	"card/internal/topology"
)

// NodeID aliases the topology node index type.
type NodeID = topology.NodeID

// Provider is the neighborhood view CARD consumes.
//
// By convention a node is a member of its own neighborhood (distance 0);
// this makes reachability unions self-consistent.
type Provider interface {
	// R returns the neighborhood radius in hops.
	R() int
	// Members returns the nodes of u's neighborhood (u included), sorted
	// ascending by id. The slice is owned by the provider and valid until
	// the next topology refresh or substrate round; callers must not
	// mutate it. Membership is O(ball), never O(N): at 100k nodes a view
	// is a few hundred entries, which is why the interface trades the old
	// N-bit set for a dense sorted list.
	Members(u NodeID) []NodeID
	// Contains reports whether x lies in u's neighborhood.
	Contains(u, x NodeID) bool
	// Dist returns the hop distance from u to x if x is in u's
	// neighborhood, else -1.
	Dist(u, x NodeID) int
	// Route returns an intra-neighborhood route u→x inclusive of both
	// endpoints, or nil if x is outside u's neighborhood.
	Route(u, x NodeID) []NodeID
	// AppendRoute appends Route(u, x) to dst and returns the extended
	// slice, or dst unchanged if there is no route. It is the
	// allocation-free form of Route for callers that reuse a buffer.
	AppendRoute(dst []NodeID, u, x NodeID) []NodeID
	// EdgeNodes returns the nodes at exactly R hops from u ("edge nodes"
	// in the paper). The slice is owned by the provider; do not mutate.
	EdgeNodes(u NodeID) []NodeID
}

// Warmer is implemented by providers whose per-node state must catch up
// with the current topology snapshot before concurrent reads. WarmAll
// runs serially — DSDV rebuilds its dirty per-node caches, the Oracle
// advances its epoch (computing no view: its readers compute and publish
// missing views themselves) — after which the Provider's read methods are
// safe to call from multiple goroutines until the next topology refresh
// or protocol round. The engine calls it before every worker fan-out.
type Warmer interface {
	WarmAll()
}

// Overlaps reports whether the neighborhoods of a and b intersect — the
// paper's overlap predicate between a candidate contact and the source (or
// a previously selected contact). The sorted member lists are merged
// directly, O(|ball(a)|+|ball(b)|), independent of network size.
func Overlaps(p Provider, a, b NodeID) bool {
	x, y := p.Members(a), p.Members(b)
	i, j := 0, 0
	for i < len(x) && j < len(y) {
		switch {
		case x[i] < y[j]:
			i++
		case x[i] > y[j]:
			j++
		default:
			return true
		}
	}
	return false
}
