package main

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"runtime"
	"time"

	"card/internal/engine"
	"card/internal/workload"
	"card/internal/xrand"
)

const mib = 1 << 20

// setupTimes marks the set-up phases: start, then the end of the preset
// build, of SelectContacts and of the warm-up.
type setupTimes [4]time.Time

func (t setupTimes) total() time.Duration { return t[3].Sub(t[0]) }

// setUp builds the workload's engine, selects contacts and warms it to the
// window start in traffic-sized steps, so the refreshes the window
// inherits match those of a run that had carried traffic. The scenario is
// the preset's own (its network seed): it is part of the workload, not of
// the inputs. Across network seeds the 25-team layout of rescue-groups-1k
// alone changes maintenance cost threefold, which no bound could absorb.
func setUp(s spec) (*engine.Engine, setupTimes, error) {
	var t setupTimes
	p, err := engine.LookupPreset(s.Preset)
	if err != nil {
		return nil, t, err
	}
	t[0] = time.Now()
	e, err := p.New(p.Net.Seed)
	if err != nil {
		return nil, t, fmt.Errorf("build %s: %w", s.Preset, err)
	}
	t[1] = time.Now()
	e.SelectContacts()
	t[2] = time.Now()
	for e.Now() < s.WarmTo {
		e.Advance(tick)
	}
	t[3] = time.Now()
	return e, t, nil
}

// window is what one measured window produced, traced or not.
type window struct {
	reps       []*workload.Report // one per chunk
	chunkWalls []float64          // host seconds per chunk
	simSec     float64
	maint      float64 // maintenance messages per node per simulated second since t=0
	liveHeap   float64 // MiB after a forced GC at window end
	reachPct   float64
	digest     string
	facts      regimeFacts
	mem        [2]runtime.MemStats // at window start and end
}

// windowRate returns the simulated seconds advanced per host second over
// windows of identical simulated work: each chunk's host time is its
// median over the windows, so a burst of host noise in one trial's chunk
// does not count.
func windowRate(ws []*window) float64 {
	var wall float64
	for j := range ws[0].chunkWalls {
		per := make([]float64, len(ws))
		for i, w := range ws {
			per[i] = w.chunkWalls[j]
		}
		wall += median(per)
	}
	return ws[0].simSec / wall
}

// queries, found and srcDown total the chunk reports.
func (w *window) totals() (queries, found, srcDown int) {
	for _, r := range w.reps {
		queries, found, srcDown = queries+r.Queries, found+r.Found, srcDown+r.SrcDown
	}
	return
}

// msgsPerQuery is the mean control messages per executed query over the
// whole window (chunk means weighted by their query counts).
func (w *window) msgsPerQuery() float64 {
	var sum float64
	var n int64
	for _, r := range w.reps {
		sum += r.Messages.Mean * float64(r.Messages.N)
		n += r.Messages.N
	}
	return sum / float64(n)
}

// maintMessages sums the categories the paper charges to contact
// maintenance: selection walks, backtracking, validation, recovery and
// link-layer retries.
func maintMessages(m engine.MessageCounts) int64 {
	return m.Selection + m.Backtrack + m.Validation + m.Recovery + m.Retry
}

// runWindow measures one window on a warmed engine: it forces a GC, reads
// the memory counters, times run (which must advance the engine through
// one chunk's traffic) on every chunk, then measures the live heap and,
// outside the timed spans, the reachability sample and the outcome digest.
func runWindow(e *engine.Engine, seed uint64, chunks []workload.Config,
	run func(workload.Config) (*workload.Report, error)) (*window, error) {
	w := &window{}
	runtime.GC()
	runtime.ReadMemStats(&w.mem[0])
	t0 := e.Now()
	for _, cfg := range chunks {
		start := time.Now()
		rep, err := run(cfg)
		wall := time.Since(start)
		if err != nil {
			return nil, err
		}
		w.reps = append(w.reps, rep)
		w.chunkWalls = append(w.chunkWalls, wall.Seconds())
	}
	runtime.GC()
	runtime.ReadMemStats(&w.mem[1])
	w.simSec = e.Now() - t0
	// Counted from t=0, set-up's selection included: the 100k window is
	// quiet by design and sends no maintenance message of its own.
	w.maint = float64(maintMessages(e.Messages())) / float64(e.Nodes()) / e.Now()
	w.liveHeap = float64(w.mem[1].HeapAlloc) / mib
	reach := reachSample(e, seed)
	for _, r := range reach {
		w.reachPct += r / float64(len(reach))
	}
	w.digest = outcomeDigest(e, w.reps, reach)
	w.facts = regimeFacts{
		nodes:       e.Nodes(),
		end:         e.Now(),
		lastRound:   e.LastRoundNodes(),
		partitioned: e.Network().PartitionActive(),
	}
	return w, nil
}

// reachSize is how many up nodes the reachability sample holds: every node
// of the 1k workload, a fifth of the 5k one.
const reachSize = 1024

// reachSample returns the depth-D reachability of a seeded sample of up
// nodes, in sample order.
func reachSample(e *engine.Engine, seed uint64) []float64 {
	depth := e.Config().Depth
	net := e.Network()
	var out []float64
	for _, u := range xrand.New(seed ^ 0x5eed).Perm(e.Nodes()) {
		if len(out) == reachSize {
			break
		}
		if net.Up(engine.NodeID(u)) {
			out = append(out, e.Reachability(engine.NodeID(u), depth))
		}
	}
	return out
}

// outcomeDigest hashes everything a window decides: every chunk report's
// aggregates, message totals by category, protocol statistics, every
// node's contact ids and the reachability sample. The scheme name is left
// out, so a traced run (which queries through a timing decorator) must
// match the untraced one exactly.
func outcomeDigest(e *engine.Engine, reps []*workload.Report, reach []float64) string {
	h := sha256.New()
	for _, rep := range reps {
		fmt.Fprintf(h, "queries %d found %d srcdown %d horizon %v success %v\n",
			rep.Queries, rep.Found, rep.SrcDown, rep.Horizon, rep.SuccessPct)
		fmt.Fprintf(h, "messages %+v\nhops %+v\nwindow %+v %v\n",
			rep.Messages, rep.Hops, rep.WindowMessages, rep.WindowSuccessPct)
	}
	fmt.Fprintf(h, "totals %+v\nstats %+v\n", e.Messages(), e.Stats())
	hashContacts(h, e)
	for _, r := range reach {
		fmt.Fprintf(h, "%v ", r)
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:8])
}

func hashContacts(h hash.Hash, e *engine.Engine) {
	prot := e.Protocol()
	var ids []engine.NodeID
	var buf [4]byte
	for u := 0; u < e.Nodes(); u++ {
		ids = prot.Table(engine.NodeID(u)).AppendIDs(ids[:0])
		binary.LittleEndian.PutUint32(buf[:], uint32(len(ids)))
		h.Write(buf[:])
		for _, v := range ids {
			binary.LittleEndian.PutUint32(buf[:], uint32(v))
			h.Write(buf[:])
		}
	}
}
