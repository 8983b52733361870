package engine

import (
	proto "card/internal/card"
	"card/internal/neighborhood"
	"card/internal/par"
)

// The round fan-out parallelizes the write-side hot loop — network-wide
// contact selection and maintenance — with the same recipe BatchQuery uses
// for the read side, plus one extra ingredient for the writes:
//
//  1. the neighborhood provider is synced (neighborhood.Warmer) before
//     the fan-out, so workers may read it concurrently;
//  2. each worker owns a card.Maintainer (private visited/overlap scratch,
//     private RNG, private stats and message tallies), flushed serially in
//     worker order after the join;
//  3. node u draws its round randomness from the counter-based substream
//     (u, round) of the run seed — never from a shared generator — so its
//     coin flips do not depend on which worker runs it or in what order.
//
// Node u's round reads and writes only u's own contact table, so sharding
// nodes across workers is race-free, and (3) makes it bit-identical to the
// serial id-order loop at any GOMAXPROCS. TestMaintainParallelEquivalence
// pins that contract.

// SetMaintainWorkers bounds the worker fan-out of maintenance and
// selection rounds: 0 (the default) uses up to GOMAXPROCS workers, 1
// forces the serial reference path, n > 1 caps the pool at n. Results,
// statistics and message accounting are bit-identical at every setting.
// Not safe to call concurrently with Advance.
func (e *Engine) SetMaintainWorkers(n int) { e.maintWorkers = n }

// roundWorkers resolves the worker bound for a round over n nodes.
func (e *Engine) roundWorkers(n int) int {
	w := e.maintWorkers
	if w <= 0 {
		w = par.Limit()
	}
	if w > n {
		w = n
	}
	return w
}

// warmProvider brings the neighborhood provider to the current snapshot
// before a fan-out; afterwards workers may read it concurrently until the
// next refresh or substrate round.
func (e *Engine) warmProvider() {
	if w, ok := e.nb.(neighborhood.Warmer); ok {
		w.WarmAll()
	}
}

// workerMaintainers returns the cached per-worker Maintainers, growing
// the pool to the requested bound. Maintainers are reusable across
// rounds: the RNG is reseeded per (node, round) and Flush zeroes the
// tallies, so caching them avoids reallocating O(N) scratch every
// ValidatePeriod. Must be called before the fan-out starts (growing the
// pool inside workers would race).
func (e *Engine) workerMaintainers(workers int) []*proto.Maintainer {
	for len(e.maintPool) < workers {
		e.maintPool = append(e.maintPool, e.prot.NewMaintainer())
	}
	return e.maintPool[:workers]
}

// maintainRound runs one maintenance round over roundNodes. Under
// DirtyMaintenance it consumes the dirty accumulator (see dirty.go).
func (e *Engine) maintainRound(now float64) {
	list := e.roundNodes()
	e.runRound(list, now, false)
	if e.dirtyMode {
		e.noteRoundTables(list) // only the listed tables could have changed
		e.dirtyAll = false
		e.dirtyAcc.Clear()
	}
}

// selectRound runs one selection round over roundNodes and returns the
// number of contacts added. Under DirtyMaintenance it reads the dirty
// list without consuming it — only a maintenance round clears the
// accumulator (selection is the lighter half of the round pair and may be
// invoked out of schedule, e.g. the t=0 warm-up).
func (e *Engine) selectRound(now float64) int {
	list := e.roundNodes()
	added := e.runRound(list, now, true)
	if e.dirtyMode {
		e.noteRoundTables(list)
	}
	return added
}

// roundNodes returns the ascending ids the next round covers — the dirty
// list under DirtyMaintenance unless a full rebuild dirtied everything,
// else every node — and records its length for LastRoundNodes.
func (e *Engine) roundNodes() []NodeID {
	var list []NodeID
	if e.dirtyMode && !e.dirtyAll {
		list = e.dirtyRoundList()
	} else {
		list = e.allNodes()
	}
	e.lastRound = len(list)
	return list
}

// allNodes returns the ids 0..N-1, the list a full round covers, built
// once and kept.
func (e *Engine) allNodes() []NodeID {
	if e.allIDs == nil {
		e.allIDs = make([]NodeID, e.net.N())
		for i := range e.allIDs {
			e.allIDs[i] = NodeID(i)
		}
	}
	return e.allIDs
}

// runRound runs one selection (selection true) or maintenance round over
// list, sharded across the worker pool, and returns the contacts a
// selection round added. It consumes one RNG round id and is bit-identical
// to the serial proto.SelectSet / proto.MaintainSet loop, which it runs
// itself when the worker bound is 1.
func (e *Engine) runRound(list []NodeID, now float64, selection bool) int {
	workers := e.roundWorkers(len(list))
	if workers <= 1 {
		if selection {
			return e.prot.SelectSet(list, now)
		}
		e.prot.MaintainSet(list, now)
		return 0
	}
	e.warmProvider()
	round := e.prot.NextRound()
	ms := e.workerMaintainers(workers)
	var added []int // per worker; integer sums are order-independent
	if selection {
		added = make([]int, workers)
	}
	par.WorkersN(workers, len(list), func(worker, i int) {
		if selection {
			added[worker] += ms[worker].SelectNode(list[i], now, round)
		} else {
			ms[worker].MaintainNode(list[i], now, round)
		}
	})
	flushAll(ms)
	total := 0
	for _, a := range added {
		total += a
	}
	return total
}

// flushAll hands the workers' local stats and message tallies to the
// protocol serially, in worker order: the shared recorder sees one
// deterministic sum per category, whatever the interleaving was.
func flushAll(ms []*proto.Maintainer) {
	for _, m := range ms {
		m.Flush()
	}
}
