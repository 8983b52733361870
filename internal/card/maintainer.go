package card

import (
	"card/internal/manet"
	"card/internal/xrand"
)

// Maintainer executes contact selection and maintenance for individual
// nodes without touching any shared mutable protocol state: the visited
// markers, the selection-overlap scratch, the random generator, the
// protocol statistics and the message tallies all live in the Maintainer
// itself. It is the write-side sibling of [Querier]: between topology
// refreshes, any number of Maintainers may run concurrently over the same
// Protocol — one per worker, each handling a disjoint set of nodes — since
// node u's round reads and writes only u's own table.
//
// Determinism is anchored in counter-based RNG streams: MaintainNode and
// SelectNode reseed the Maintainer's generator from the substream
// (nodeID, round) of the protocol's run seed, so a node's coin flips are
// identical whether the round runs serially in id order or sharded across
// any number of workers in any interleaving. The engine's round fan-out
// relies on exactly this.
//
// A Maintainer is single-goroutine; protocol statistics and message
// tallies accumulate locally until Flush hands them over. With concurrent
// Maintainers, flush serially after the fan-out joins (the engine flushes
// in worker order).
type Maintainer struct {
	p *Protocol

	// visited is the per-CSQ "this node has seen query q" marker, epoch
	// stamped to avoid clearing between walks (EM walks only; PM walks are
	// memoryless by design).
	visited  []uint64
	visitGen uint64

	// ineligible is the selection-overlap set of the current selectContacts
	// call, epoch stamped like visited; see computeIneligible. ineligReady
	// reports whether the current call has computed it yet.
	ineligible  []uint64
	ineligGen   uint64
	ineligReady bool

	// Reusable walk and validation scratch, grown on demand and retained
	// across rounds: the walk stack and its frames, the candidate arena the
	// frames index into (see walkEM), the shuffled edge-node copy,
	// validatePath's rebuilt route and the provider route buffer. The old
	// per-walk allocations of these were the dominant GC churn of a
	// maintenance round.
	stack   []NodeID
	frames  []frame
	cand    []NodeID
	edges   []NodeID
	pathOut []NodeID
	route   []NodeID

	// The per-hop hot state — the generator and the local tallies — sits
	// on cache lines of its own. Workers' Maintainers are separate heap
	// objects that can land back to back; without the fences one worker's
	// draws and tally bumps would keep invalidating the line another
	// worker's generator lives on.
	_ [cacheLine]byte

	// rng is reseeded from the (node, round) substream at every
	// MaintainNode/SelectNode entry; it must never be drawn from before a
	// reseed.
	rng xrand.Rand

	// Locally accumulated protocol statistics and transmission tallies,
	// flushed on demand.
	stats Stats
	pend  manet.Counters

	_ [cacheLine]byte
}

// cacheLine is the fence width between per-worker hot state (see
// Maintainer).
const cacheLine = 64

// frame is one level of a CSQ walk stack at or beyond the edge node: the
// node's remaining candidates are cand[lo:hi] of the Maintainer's arena.
// EM frames also remember the arena index of the child the walk last
// forwarded to (pick) and the walk's visit count right after that child
// was stamped (seen), which is all walkEM needs to repair the segment when
// the walk returns.
type frame struct {
	lo, hi     int
	pick, seen int
}

// NewMaintainer creates an independent selection/maintenance executor
// over p.
func (p *Protocol) NewMaintainer() *Maintainer {
	return &Maintainer{
		p:          p,
		visited:    make([]uint64, p.net.N()),
		ineligible: make([]uint64, p.net.N()),
		// rng's zero value is reseeded per (node, round) before use.
	}
}

// Flush hands the locally accumulated statistics and message tallies to
// the protocol and its network recorder, and zeroes them. Call after a
// serial round completes, or — with concurrent Maintainers — serially
// after the fan-out joins.
func (m *Maintainer) Flush() {
	m.pend.AddTo(m.p.net.Recorder())
	m.pend.Reset()
	m.p.stats.add(m.stats)
	m.stats = Stats{}
}

// sendHop accounts one unicast hop transmission of category cat into the
// local tally.
func (m *Maintainer) sendHop(cat manet.Category) { m.pend.Add(cat, 1) }

// sendHops accounts k unicast hop transmissions of category cat.
func (m *Maintainer) sendHops(cat manet.Category, k int) { m.pend.Add(cat, k) }

// SelectNode runs the contact-selection procedure of §III.C.1 for node u
// at simulation time now, drawing randomness from the (u, round)
// substream. It returns the number of contacts added. Churned-down nodes
// skip the round entirely — their radios are off — which is safe for the
// parallel fan-out because every node's randomness comes from its own
// substream, so a skip cannot shift any other node's draws. See
// Protocol.SelectContacts for the serial entry point.
func (m *Maintainer) SelectNode(u NodeID, now float64, round uint64) int {
	if m.p.net.Down(u) {
		return 0
	}
	m.rng.Reseed(m.p.rng.StreamSeed(uint64(u), round))
	return m.selectContacts(u, now)
}

// MaintainNode runs one contact-maintenance round (§III.C.3) for node u,
// drawing any refill-selection randomness from the (u, round) substream.
// Churned-down nodes skip the round (see SelectNode). See
// Protocol.Maintain for the serial entry point and the rule list.
func (m *Maintainer) MaintainNode(u NodeID, now float64, round uint64) {
	if m.p.net.Down(u) {
		return
	}
	m.rng.Reseed(m.p.rng.StreamSeed(uint64(u), round))
	m.maintain(u, now)
}

// selectContacts implements the selection round on the already-seeded
// generator: while the table holds fewer than NoC contacts, send a Contact
// Selection Query (CSQ) through each edge node, one at a time.
//
// Each CSQ performs a random depth-first walk with backtracking beyond the
// edge node, bounded to r hops from the source, until some node accepts
// contact-hood under the configured method (PM1/PM2/EM) or the region is
// exhausted.
//
// A walk that comes home empty visited everything it could reach within
// its budget, but walks launched through other edge nodes still explore
// different directions (path length is charged from the source through
// that edge). The round therefore tolerates MaxFailedWalks empty walks
// before giving up until the next maintenance round — which retries with
// fresh randomness, mattering most for the probabilistic methods whose
// coin flips may simply have failed (the paper's "lost opportunities").
func (m *Maintainer) selectContacts(u NodeID, now float64) int {
	p := m.p
	t := &p.tables[u]
	if t.Len() >= p.cfg.NoC {
		return 0
	}
	edges := append(m.edges[:0], p.nb.EdgeNodes(u)...)
	m.edges = edges
	m.rng.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
	m.ineligReady = false
	added, failures := 0, 0
	for _, e := range edges {
		if t.Len() >= p.cfg.NoC {
			break
		}
		path, exhausted := m.runCSQ(u, e)
		if path != nil {
			c := path[len(path)-1]
			t.add(Contact{ID: c, Path: path, SelectedAt: now, LastValidated: now})
			m.stampIneligible(c)
			m.stats.ContactsSelected++
			added++
		}
		if exhausted {
			failures++
			if p.cfg.MaxFailedWalks > 0 && failures >= p.cfg.MaxFailedWalks {
				break
			}
		}
	}
	return added
}

// maintain implements the maintenance round on the already-seeded
// generator; see Protocol.Maintain for the five rules.
func (m *Maintainer) maintain(u NodeID, now float64) {
	p := m.p
	t := &p.tables[u]
	for i := 0; i < t.Len(); {
		newPath, ok := m.validatePath(t.at(i))
		if !ok {
			m.stats.ContactsLost++
			t.removeAt(i)
			continue
		}
		hops := len(newPath) - 1
		lo := p.cfg.Method.lowerBound(p.cfg.R)
		if hops < lo || hops > p.cfg.MaxContactDist {
			m.stats.ContactsLost++
			m.stats.BoundDrops++
			t.removeAt(i)
			continue
		}
		t.setPath(i, newPath)
		t.at(i).LastValidated = now
		i++
	}
	if t.Len() < p.cfg.NoC {
		m.selectContacts(u, now)
	}
}

// computeIneligible stamps into m.ineligible every node that must refuse
// contact-hood for source u.
//
// The paper phrases the test locally at the candidate X: "X checks if the
// source lies within its neighborhood [and] if its neighborhood contains
// any of the node IDs in the Contact_List [or, under EM, the Edge_List]".
// Hop distance over an undirected snapshot is symmetric, so
// (y in N(X)) == (X in N(y)); the union of N(source), N(contact_i) and —
// for EM — N(edge_j) therefore contains exactly the candidates that would
// refuse. Precomputing that union replaces O(|Contact_List| + |Edge_List|)
// membership probes at every visited node with one stamp comparison,
// without changing the decision each node would make. Marking the sorted
// member lists costs O(Σ|ball|), independent of N — where the old N-bit
// set unions made every CSQ pay O(N/64) at 100k nodes.
//
// The union is computed once per selectContacts call, at its first CSQ:
// within a call only an acceptance changes the Contact_List, and the union
// only grows by the new contact's neighborhood, which stampIneligible adds
// into the same generation.
func (m *Maintainer) computeIneligible(u NodeID) {
	p := m.p
	m.ineligGen++
	m.ineligReady = true
	m.stampIneligible(u)
	t := &p.tables[u]
	for i := 0; i < t.Len(); i++ {
		m.stampIneligible(t.at(i).ID)
	}
	if p.cfg.Method == EM {
		for _, e := range p.nb.EdgeNodes(u) {
			m.stampIneligible(e)
		}
	}
}

// stampIneligible marks x's neighborhood into the current eligibility
// generation.
func (m *Maintainer) stampIneligible(x NodeID) {
	gen := m.ineligGen
	for _, y := range m.p.nb.Members(x) {
		m.ineligible[y] = gen
	}
}

// accept decides whether node x, reached with CSQ hop count d, becomes a
// contact for the current walk (§III.C.2).
func (m *Maintainer) accept(x NodeID, d int) bool {
	if m.ineligible[x] == m.ineligGen {
		return false
	}
	switch m.p.cfg.Method {
	case PM1:
		return m.rng.Bool(acceptProb(d, m.p.cfg.R, m.p.cfg.MaxContactDist))
	case PM2:
		return m.rng.Bool(acceptProb(d, 2*m.p.cfg.R, m.p.cfg.MaxContactDist))
	default: // EM: the edge-list exclusion is already in ineligible
		return true
	}
}

// runCSQ sends one Contact Selection Query from u through edge node e. It
// returns the selected contact's loop-free source route (scratch owned by
// the Maintainer, valid until its next walk — callers store it via
// Table.add, which copies), or nil with exhausted=true when the walk gave
// up (region saturated for EM; step budget burned for PM).
//
// The two walk disciplines deliberately differ, following §III.C.2:
//
//   - EM carries "the query and source IDs ... to prevent looping", i.e.
//     nodes remember the query and refuse to take it twice — a clean
//     depth-first traversal over distinct nodes that terminates once the
//     r-hop region is exhausted.
//   - PM has no such memory: each node "forwards the query to one of its
//     randomly chosen neighbor (excluding the one from which CSQ was
//     received)". The walk may revisit nodes (re-flipping the coin), its
//     hop count d is the length of the path it has built, and it bounces
//     off the d = r shell with backtracking. This wandering is exactly the
//     "extra traffic ... due to backtracking, and lost opportunities when
//     the probability fails" that Fig. 4 charges to PM; a per-query step
//     budget (2N transmissions) bounds walks that would wander forever.
//
// Message accounting: the transit u→e and every forward walk hop count as
// CatCSQ; every reverse hop (dead-end retreat, r-shell bounce, and the
// failure report back to the source) counts as CatBacktrack; the success
// reply returning the contact path counts as CatCSQ.
func (m *Maintainer) runCSQ(u, e NodeID) (path []NodeID, exhausted bool) {
	m.stats.CSQLaunched++
	route := m.p.nb.AppendRoute(m.route[:0], u, e)
	m.route = route
	if len(route) == 0 {
		return nil, false // stale edge information (provider mid-convergence)
	}
	if !m.ineligReady {
		m.computeIneligible(u)
	}
	m.sendHops(manet.CatCSQ, len(route)-1)
	if m.p.cfg.Method == EM {
		return m.walkEM(route)
	}
	return m.walkPM(route)
}

// walkEM runs the edge method's loop-free depth-first walk.
//
// Each frame from the edge node outward owns a segment of the candidate
// arena m.cand holding its node's unvisited neighbors in Neighbors order
// (after the depth rule and the bidirectionality filter), built once when
// the node is pushed. Frame segments stack in push order, so a child's
// segment always starts where its parent's ends. When the walk returns to
// x, x's segment is repaired instead of rescanned: if the visit count
// still equals the one saved when the child was chosen, the child was the
// only new visit and its entry is cut out in order; otherwise one filter
// pass drops everything visited since. Visits only grow within a walk, so
// the segment always equals what a fresh rescan of x's neighbors would
// list, and Intn draws the same index from it.
func (m *Maintainer) walkEM(route []NodeID) ([]NodeID, bool) {
	m.visitGen++
	gen := m.visitGen
	for _, n := range route {
		m.visited[n] = gen
	}
	visits := len(route)
	stack := append(m.stack[:0], route...)
	cand := m.appendCandEM(m.cand[:0], stack)
	frames := append(m.frames[:0], frame{hi: len(cand)})
	for {
		f := &frames[len(frames)-1]
		if f.lo == f.hi {
			// Dead end or depth limit: backtrack one hop. Walking back past
			// the edge node means the whole region is exhausted — the
			// failure report continues to the source.
			m.sendHop(manet.CatBacktrack)
			stack = stack[:len(stack)-1]
			frames = frames[:len(frames)-1]
			if len(frames) == 0 {
				m.sendHops(manet.CatBacktrack, len(stack)-1)
				m.stack, m.frames, m.cand = stack, frames, cand
				return nil, true
			}
			f = &frames[len(frames)-1]
			if visits == f.seen {
				copy(cand[f.pick:], cand[f.pick+1:f.hi])
				f.hi--
			} else {
				w := f.lo
				for _, y := range cand[f.lo:f.hi] {
					if m.visited[y] != gen {
						cand[w] = y
						w++
					}
				}
				f.hi = w
			}
			cand = cand[:f.hi]
			continue
		}
		f.pick = f.lo + m.rng.Intn(f.hi-f.lo)
		y := cand[f.pick]
		m.visited[y] = gen
		visits++
		f.seen = visits
		stack = append(stack, y)
		m.sendHop(manet.CatCSQ)
		if m.accept(y, len(stack)-1) {
			m.stack, m.frames, m.cand = stack, frames, cand
			return m.acceptContact(stack), false
		}
		lo := len(cand)
		cand = m.appendCandEM(cand, stack)
		frames = append(frames, frame{lo: lo, hi: len(cand)})
	}
}

// appendCandEM appends to dst the EM candidates of the walk's current
// holder (the top of stack): its unvisited neighbors, in Neighbors order,
// none at all once the walk is r hops out.
func (m *Maintainer) appendCandEM(dst, stack []NodeID) []NodeID {
	if len(stack)-1 >= m.p.cfg.MaxContactDist {
		return dst
	}
	out, in := m.hops(stack[len(stack)-1])
	j := 0
	for _, y := range out {
		if in != nil && !inSorted(in, &j, y) {
			continue
		}
		if m.visited[y] != m.visitGen {
			dst = append(dst, y)
		}
	}
	return dst
}

// hops returns the lists a walk at x draws its next hop from: x's
// neighbors, and — on directed snapshots — x's in-neighbors, which the
// next hop must also be. Under asymmetric links the walks only advance
// over bidirectional hops: the CSQ needs its reply (and every backtrack)
// to travel the reverse edge, and a contact reached one-way would fail
// its first validation anyway. in is nil on undirected snapshots.
func (m *Maintainer) hops(x NodeID) (out, in []NodeID) {
	g := m.p.net.Graph()
	if !m.p.net.Directed() {
		return g.Neighbors(x), nil
	}
	return g.Neighbors(x), g.InNeighbors(x)
}

// inSorted reports whether y is in the ascending list in, advancing the
// merge cursor *j; successive calls must pass ascending y.
func inSorted(in []NodeID, j *int, y NodeID) bool {
	for *j < len(in) && in[*j] < y {
		*j++
	}
	return *j < len(in) && in[*j] == y
}

// walkPM runs the probabilistic methods' memoryless walk: forward to a
// random neighbor other than the parent, bounce off the r-hop shell, and
// give up when the per-query step budget is gone.
//
// Frames work as in walkEM, but PM candidates depend only on the holder,
// its parent and its depth — all fixed for the frame's lifetime — so a
// frame's segment is reused unchanged every time the walk returns to it.
func (m *Maintainer) walkPM(route []NodeID) ([]NodeID, bool) {
	stack := append(m.stack[:0], route...)
	budget := m.csqBudget()
	cand := m.appendCandPM(m.cand[:0], stack)
	frames := append(m.frames[:0], frame{hi: len(cand)})
	for budget > 0 {
		f := frames[len(frames)-1]
		if f.lo == f.hi {
			// r-shell bounce or dead end: backtrack one hop.
			m.sendHop(manet.CatBacktrack)
			budget--
			stack = stack[:len(stack)-1]
			frames = frames[:len(frames)-1]
			if len(frames) == 0 {
				m.sendHops(manet.CatBacktrack, len(stack)-1)
				m.stack, m.frames, m.cand = stack, frames, cand
				return nil, true
			}
			cand = cand[:frames[len(frames)-1].hi]
			continue
		}
		y := cand[f.lo+m.rng.Intn(f.hi-f.lo)]
		stack = append(stack, y)
		m.sendHop(manet.CatCSQ)
		budget--
		if m.accept(y, len(stack)-1) {
			m.stack, m.frames, m.cand = stack, frames, cand
			return m.acceptContact(stack), false
		}
		cand = m.appendCandPM(cand, stack)
		frames = append(frames, frame{lo: f.hi, hi: len(cand)})
	}
	// Budget exhausted mid-walk: the query dies and the current holder
	// reports failure back along the walk path.
	m.sendHops(manet.CatBacktrack, len(stack)-1)
	m.stack, m.frames, m.cand = stack, frames, cand
	return nil, true
}

// appendCandPM appends to dst the PM candidates of the walk's current
// holder: its neighbors other than its parent on the stack (the route has
// at least two nodes and the stack never shrinks below it), in Neighbors
// order, none at all once the walk is r hops out. The hop lists are those
// of the EM walk (see hops).
func (m *Maintainer) appendCandPM(dst, stack []NodeID) []NodeID {
	if len(stack)-1 >= m.p.cfg.MaxContactDist {
		return dst
	}
	parent := stack[len(stack)-2]
	out, in := m.hops(stack[len(stack)-1])
	j := 0
	for _, y := range out {
		if in != nil && !inSorted(in, &j, y) {
			continue
		}
		if y != parent {
			dst = append(dst, y)
		}
	}
	return dst
}

// csqBudget is the PM walk's transmission budget: twice the network size,
// enough to cover the region several times over without letting a
// pathological walk run unbounded.
func (m *Maintainer) csqBudget() int { return 2 * m.p.net.N() }

// acceptContact finalizes a successful walk: the acceptor compacts the
// accumulated walk into a loop-free source route and returns it to the
// source, which stores the contact. The compaction runs in place on the
// walk stack — the walk is over, and the caller copies the route into the
// table's arena segment before the scratch is reused.
//
// The compaction matters for the PM walks, whose memoryless wandering may
// self-intersect: the acceptance decision uses the raw walk hop count d
// (the paper's semantics), but the route the reply carries — and the
// source stores — must be the net, loop-free path, or Contact.Hops() is
// inflated and the contact gets wrongly bound-dropped at the next
// maintenance round. EM walks are simple by construction, so compaction
// is a no-op for them.
func (m *Maintainer) acceptContact(stack []NodeID) []NodeID {
	path := compactLoops(stack)
	m.sendHops(manet.CatCSQ, len(path)-1) // reply carrying the loop-free path
	m.stats.CSQSucceeded++
	return path
}

// validatePath walks a contact's stored source route over the current
// topology, splicing around missing hops via local recovery. It returns
// the (possibly re-spliced) path — Maintainer-owned scratch, valid until
// the next validation; callers persist it via Table.setPath, which copies
// — or ok=false when the contact is lost.
//
// Recovery splices can revisit nodes already on the rebuilt prefix — the
// holder routes around the break through whatever its neighborhood table
// offers, oblivious to where the message has been — so the final route is
// compacted before it is returned: the stored path must be a simple source
// route, and maintenance rule 4 must judge the contact by its loop-free
// length.
//
// Message accounting: every surviving hop of the validation walk counts as
// CatValidate; hops introduced by recovery splices count as CatRecovery
// (both at their traveled, pre-compaction length — the transmissions
// happened). Under a lossy link model each attempted hop additionally
// charges its retransmissions to CatRetry, and a hop that exhausts its
// retry budget is treated exactly like a broken link: the validation
// message sits at the break and pays the local-recovery detour — the
// asymmetric/lossy-hop cost the directed contract prescribes. A hop whose
// reverse edge is missing (asymmetric link) attempts nothing and goes
// straight to recovery.
func (m *Maintainer) validatePath(c *Contact) (path []NodeID, ok bool) {
	p := m.p
	old := c.Path
	out := append(m.pathOut[:0], old[0])
	i := 0 // index in old of the node the validation message sits at
	for i+1 < len(old) {
		cur := out[len(out)-1]
		next := old[i+1]
		att, delivered := p.net.TryHop(cur, next)
		if att > 0 {
			m.sendHop(manet.CatValidate)
			if att > 1 {
				m.sendHops(manet.CatRetry, att-1)
			}
		}
		if delivered {
			out = append(out, next)
			i++
			continue
		}
		if p.cfg.DisableLocalRecovery {
			m.stats.RecoveryFailures++
			m.pathOut = out
			return nil, false
		}
		// Local recovery: look for the missing hop — and failing that, each
		// subsequent node of the source path — in cur's neighborhood table.
		recovered := false
		for j := i + 1; j < len(old); j++ {
			if !p.nb.Contains(cur, old[j]) {
				continue
			}
			sub := p.nb.AppendRoute(m.route[:0], cur, old[j])
			m.route = sub
			if len(sub) == 0 {
				continue
			}
			m.sendHops(manet.CatRecovery, len(sub)-1)
			out = append(out, sub[1:]...)
			i = j
			m.stats.Recoveries++
			recovered = true
			break
		}
		if !recovered {
			m.stats.RecoveryFailures++
			m.pathOut = out
			return nil, false
		}
	}
	m.pathOut = out
	return compactLoops(out), true
}
