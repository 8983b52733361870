package neighborhood

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"card/internal/manet"
	"card/internal/topology"
)

// Oracle provides the converged R-hop neighborhood view over the network's
// current topology snapshot. Views are computed on first read per node and
// kept until the network epoch changes, so mobile simulations pay only for
// the nodes actually read between refreshes.
//
// # Compact views
//
// A view stores only the ball it describes — sorted member ids with
// parallel distance and BFS-parent columns — never an N-sized array. At
// 100k nodes the old representation (full BFS Dist/Parent arrays plus an
// N-bit membership set per view) would have cost ~800 KB per node, ~80 GB
// warm; the compact view is O(|ball|), a few KB. Lookups binary-search the
// member column; routes are reconstructed by chaining parents.
//
// # Residency
//
// Views live in one slot per node. With maxResident 0 every computed view
// stays until the epoch moves on. With maxResident > 0 at most that many
// views are resident at once: installs are recorded in a FIFO ring, and
// installing into a full ring first evicts the oldest recorded id. Every
// resident view was recorded at its install and is cleared when its
// record is evicted, so the resident views are a subset of the ring's ids
// and never more than maxResident. Retain and the epoch wipe clear slots
// without touching the ring; a stale record only makes a later eviction
// clear an already-empty (or re-installed) slot, which can only lower
// residency. The 1M-node preset uses the cap: a fully resident view table
// at R=2 over a million nodes is gigabytes, almost all of it never read by
// a restricted maintenance round.
//
// # Concurrency and determinism
//
// A view is a pure function of the current snapshot, so what is resident,
// what was evicted and which goroutine computed a view first cannot
// influence any result: every read returns data bit-identical to a fresh
// computation. Reads are safe from any number of goroutines once WarmAll
// has brought the Oracle to the current epoch: a read loads the node's
// slot and, when it is empty, computes the view and installs it with a
// compare-and-swap — the loser of a race adopts the winner's (identical)
// view. Hits never lock; a capped install takes the ring lock. Evicted
// views stay valid for readers holding them (views are immutable once
// built; eviction only drops the slot's reference).
//
// # Retention across refreshes
//
// By default every refresh (epoch bump) invalidates every view. Engines
// running dirty-set maintenance instead call Retain with the set of nodes
// whose R-ball may have changed, keeping all other views alive across the
// refresh. The views kept are bit-identical to freshly computed ones: a
// view depends only on the subgraph within R hops of its node, so it can
// only change if some adjacency list inside that ball changed — and any
// such node is within R hops of an adjacency-changed node along a path
// that survives in both snapshots, so the caller's R-expansion of the
// adjacency diff provably covers it.
type Oracle struct {
	net *manet.Network
	r   int

	// epoch is the network epoch the slots belong to. Only serial calls
	// (WarmAll, Retain, a read that finds the epoch stale) write it.
	epoch uint64
	slots []atomic.Pointer[oracleView] // indexed by node; nil = not resident

	// ring records installed ids in install order when capped (len ==
	// maxResident; nil when unbounded, which a cap at or above the node
	// count is too). next is the position the next install overwrites,
	// filled how many positions hold a record.
	//
	//cardlint:parallel install guard for the capped view ring; views are pure functions of the snapshot, so lock order cannot alter simulation results
	ringMu sync.Mutex
	ring   []NodeID
	next   int
	filled int

	// scratch pools the per-BFS stamp arrays: views are computed by
	// whichever worker reads them first, and the scratch contents never
	// influence the (purely graph-determined) view, so pooling is
	// determinism-safe.
	scratch sync.Pool
}

// oracleView is one node's R-ball in structure-of-arrays form: members is
// sorted ascending, and dist/parent are parallel to it. edges lists the
// members at exactly R hops in BFS discovery order (the order the old
// full-array implementation produced, which the contact-selection shuffle
// seeds against).
type oracleView struct {
	members []NodeID
	dist    []uint8
	parent  []NodeID
	edges   []NodeID
}

// find returns the members index of x, or -1.
func (v *oracleView) find(x NodeID) int {
	i, ok := slices.BinarySearch(v.members, x)
	if !ok {
		return -1
	}
	return i
}

// oracleScratch is the reusable BFS workspace: generation-stamped visit
// markers plus full-size distance/parent columns, compacted into the
// O(ball) view on completion.
type oracleScratch struct {
	stamp  []uint64
	gen    uint64
	dist   []uint8
	parent []NodeID
	order  []NodeID // BFS discovery order; doubles as the queue
}

// NewOracle creates an oracle neighborhood provider with radius r over
// net, keeping at most maxResident views resident (0 = unbounded; a cap
// at or above the node count is unbounded too).
func NewOracle(net *manet.Network, r, maxResident int) *Oracle {
	if r < 1 {
		panic("neighborhood: radius must be >= 1")
	}
	if r > 255 {
		panic("neighborhood: radius exceeds uint8 distance column")
	}
	if maxResident < 0 {
		panic(fmt.Sprintf("neighborhood: negative view residency cap %d", maxResident))
	}
	n := net.N()
	o := &Oracle{
		net:   net,
		r:     r,
		epoch: net.Epoch(),
		slots: make([]atomic.Pointer[oracleView], n),
	}
	if maxResident > 0 && maxResident < n {
		o.ring = make([]NodeID, maxResident)
	}
	o.scratch.New = func() any {
		return &oracleScratch{
			stamp:  make([]uint64, n),
			dist:   make([]uint8, n),
			parent: make([]NodeID, n),
		}
	}
	return o
}

// R implements Provider.
func (o *Oracle) R() int { return o.r }

// sync advances the Oracle to the network's current epoch, wiping every
// view when the topology moved on without a Retain call. Only a stale
// epoch writes anything, so after WarmAll concurrent readers find sync a
// pure read.
func (o *Oracle) sync() {
	e := o.net.Epoch()
	if e == o.epoch {
		return
	}
	o.epoch = e
	if o.ring == nil {
		clear(o.slots)
		return
	}
	// Every resident view is recorded in the ring (see the type comment).
	for _, u := range o.ring[:o.filled] {
		o.slots[u].Store(nil)
	}
	o.next, o.filled = 0, 0
}

// Retain advances the oracle to the network's current epoch while keeping
// every view except those of the listed nodes, which are dropped and
// recomputed on next use. Call immediately after a topology refresh,
// before any view is read; changed must include every node whose R-hop
// ball could differ between the two snapshots (the engine derives it by
// R-expanding the builder's adjacency diff — see the type comment for why
// that is sound). Duplicates in changed are harmless.
func (o *Oracle) Retain(changed []NodeID) {
	o.epoch = o.net.Epoch()
	for _, u := range changed {
		o.slots[u].Store(nil)
	}
}

// WarmAll implements Warmer. It computes no view: it only brings the
// Oracle to the current epoch (wiping the views of a refresh that was not
// retained), which is what makes the following concurrent reads safe —
// each worker then computes and installs the views it reads.
func (o *Oracle) WarmAll() { o.sync() }

// computeView runs the R-bounded BFS for u over g into the reusable
// scratch and compacts the result into an O(ball) view. Pure function of
// the graph — every worker that computes u's view gets the bit-identical
// view for the same snapshot.
func computeView(g *topology.Graph, r int, u NodeID, s *oracleScratch) *oracleView {
	s.gen++
	gen := s.gen
	s.order = s.order[:0]
	s.stamp[u] = gen
	s.dist[u] = 0
	s.parent[u] = topology.None
	s.order = append(s.order, u)
	rr := uint8(r)
	for head := 0; head < len(s.order); head++ {
		x := s.order[head]
		if s.dist[x] == rr {
			continue
		}
		for _, y := range g.Neighbors(x) {
			if s.stamp[y] == gen {
				continue
			}
			s.stamp[y] = gen
			s.dist[y] = s.dist[x] + 1
			s.parent[y] = x
			s.order = append(s.order, y)
		}
	}
	k := len(s.order)
	edgeCount := 0
	for _, v := range s.order {
		if s.dist[v] == rr {
			edgeCount++
		}
	}
	view := &oracleView{
		members: make([]NodeID, k),
		dist:    make([]uint8, k),
		parent:  make([]NodeID, k),
	}
	if edgeCount > 0 {
		view.edges = make([]NodeID, 0, edgeCount)
		// Edge nodes in BFS discovery order, like the old implementation.
		for _, v := range s.order {
			if s.dist[v] == rr {
				view.edges = append(view.edges, v)
			}
		}
	}
	copy(view.members, s.order)
	slices.Sort(view.members)
	for i, v := range view.members {
		view.dist[i] = s.dist[v]
		view.parent[i] = s.parent[v]
	}
	return view
}

// view returns u's view, computing and installing it if absent.
func (o *Oracle) view(u NodeID) *oracleView {
	o.sync()
	if v := o.slots[u].Load(); v != nil {
		return v
	}
	s := o.scratch.Get().(*oracleScratch)
	v := computeView(o.net.Graph(), o.r, u, s)
	o.scratch.Put(s)
	return o.install(u, v)
}

// install publishes u's freshly computed view v and returns the view u's
// slot holds afterwards: v, or the identical view another reader
// installed first. Capped, it records u in the ring and evicts the oldest
// record once the ring is full.
func (o *Oracle) install(u NodeID, v *oracleView) *oracleView {
	if o.ring == nil {
		if o.slots[u].CompareAndSwap(nil, v) {
			return v
		}
		return o.slots[u].Load()
	}
	o.ringMu.Lock()
	defer o.ringMu.Unlock()
	if w := o.slots[u].Load(); w != nil {
		return w
	}
	if o.filled == len(o.ring) {
		o.slots[o.ring[o.next]].Store(nil)
	} else {
		o.filled++
	}
	o.ring[o.next] = u
	o.next = (o.next + 1) % len(o.ring)
	o.slots[u].Store(v)
	return v
}

// Members implements Provider.
func (o *Oracle) Members(u NodeID) []NodeID { return o.view(u).members }

// Contains implements Provider.
func (o *Oracle) Contains(u, x NodeID) bool { return o.view(u).find(x) >= 0 }

// Dist implements Provider.
func (o *Oracle) Dist(u, x NodeID) int {
	v := o.view(u)
	i := v.find(x)
	if i < 0 {
		return -1
	}
	return int(v.dist[i])
}

// Route implements Provider.
func (o *Oracle) Route(u, x NodeID) []NodeID { return o.view(u).appendRoute(nil, x) }

// AppendRoute implements Provider.
func (o *Oracle) AppendRoute(dst []NodeID, u, x NodeID) []NodeID {
	return o.view(u).appendRoute(dst, x)
}

// appendRoute appends the BFS path to x, reconstructed by chaining
// parents, to dst (dst unchanged if x is outside the ball).
func (v *oracleView) appendRoute(dst []NodeID, x NodeID) []NodeID {
	i := v.find(x)
	if i < 0 {
		return dst
	}
	d := int(v.dist[i])
	n := len(dst)
	dst = slices.Grow(dst, d+1)[:n+d+1]
	path := dst[n:]
	path[d] = x
	for j := d; j > 0; j-- {
		p := v.parent[i]
		path[j-1] = p
		i = v.find(p)
	}
	return dst
}

// EdgeNodes implements Provider.
func (o *Oracle) EdgeNodes(u NodeID) []NodeID { return o.view(u).edges }

var (
	_ Provider = (*Oracle)(nil)
	_ Warmer   = (*Oracle)(nil)
)
