package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"card/internal/engine"
	"card/internal/neighborhood"
	"card/internal/resource"
	"card/internal/scheme"
	"card/internal/workload"
)

// interval is a span's extent in nanoseconds since the tracer's base.
type interval struct{ Start, End int64 }

func (iv interval) dur() int64 { return iv.End - iv.Start }

// tickRec is one workload tick as the traced driver saw it. The tick runs
// from the start of its Advance to the start of the next tick's Advance,
// or to the return of the workload.Run call it belongs to; Advance and
// Warm are its serial children, the Discover spans tagged with its index
// its parallel ones.
type tickRec struct {
	Tick, Advance, Warm interval
	Rounds              int64                // maintenance rounds the Advance fired
	RoundNodes          int                  // LastRoundNodes after a round
	Maint               engine.MessageCounts // maintenance messages the Advance sent
	Changed             int                  // len(AdjacencyChanged()) after the refresh
	AllChanged          bool                 // the refresh rebuilt the whole topology
}

// discoverRec is one Worker.Discover call on a query worker.
type discoverRec struct {
	Tick int
	interval
}

// tracer keeps the spans of one traced run in memory. The driver-side
// fields are written only by the goroutine running workload.Run; query
// workers append to their own tracedWorker.
type tracer struct {
	base   time.Time
	scheme string      // the registered timing decorator
	setup  [3]interval // build, select, warm
	window interval
	ticks  []tickRec
	open   bool // the last tick has not ended yet
	// cur is the index of the current tick. The driver writes it in
	// Advance, before the tick's fan-out starts the goroutines that read it.
	cur int
	// mu guards workers: the fan-out creates query workers lazily, from
	// whichever goroutine first runs a query on that worker slot.
	mu      sync.Mutex
	workers []*tracedWorker
}

// newTracer starts a trace and registers its timing decorator.
func newTracer() (*tracer, error) {
	tr := &tracer{base: time.Now()}
	var err error
	tr.scheme, err = tr.register()
	return tr, err
}

func (tr *tracer) at(t time.Time) int64 { return t.Sub(tr.base).Nanoseconds() }
func (tr *tracer) now() int64           { return tr.at(time.Now()) }

// schemeSeq numbers the timing decorators registered by this process: the
// scheme registry is process-wide and refuses to register a name twice.
var schemeSeq int

// register adds a timing decorator over the card scheme to the scheme
// registry and returns its name. The registry is not safe for concurrent
// use: call it from one goroutine, with no run in flight.
func (tr *tracer) register() (string, error) {
	schemeSeq++
	name := fmt.Sprintf("card-traced-%d", schemeSeq)
	return name, scheme.Register(name, func(env scheme.Env) (scheme.DiscoveryScheme, error) {
		inner, err := scheme.New("card", env)
		if err != nil {
			return nil, err
		}
		return &tracedScheme{DiscoveryScheme: inner, tr: tr}, nil
	})
}

// tracedScheme is the card scheme with every worker's Discover timed.
type tracedScheme struct {
	scheme.DiscoveryScheme
	tr *tracer
}

func (s *tracedScheme) Worker() scheme.Worker {
	w := &tracedWorker{Worker: s.DiscoveryScheme.Worker(), tr: s.tr}
	s.tr.mu.Lock()
	w.id = len(s.tr.workers)
	s.tr.workers = append(s.tr.workers, w)
	s.tr.mu.Unlock()
	return w
}

type tracedWorker struct {
	scheme.Worker
	tr    *tracer
	id    int
	spans []discoverRec
}

func (w *tracedWorker) Discover(src scheme.NodeID, id resource.ID) resource.Result {
	start := w.tr.now()
	r := w.Worker.Discover(src, id)
	w.spans = append(w.spans, discoverRec{Tick: w.tr.cur, interval: interval{start, w.tr.now()}})
	return r
}

// tracedDriver is the engine as workload.Run drives it, with every Advance
// timed and followed by a timed neighborhood warm. The warm moves no
// result: views are pure functions of the snapshot, and the tick's own
// warm inside the query fan-out then finds nothing left to do.
type tracedDriver struct {
	*engine.Engine
	tr     *tracer
	warmer neighborhood.Warmer // nil when the provider computes views on demand
}

func newTracedDriver(e *engine.Engine, tr *tracer) *tracedDriver {
	w, _ := e.Neighborhood().(neighborhood.Warmer)
	return &tracedDriver{Engine: e, tr: tr, warmer: w}
}

func (d *tracedDriver) Advance(dt float64) {
	tr := d.tr
	tickStart := tr.now()
	if tr.open {
		tr.ticks[len(tr.ticks)-1].Tick.End = tickStart
	}
	r0, m0 := d.Rounds(), d.Messages()
	rec := tickRec{Tick: interval{Start: tickStart}}
	rec.Advance.Start = tr.now()
	d.Engine.Advance(dt)
	rec.Advance.End = tr.now()
	if rec.Rounds = d.Rounds() - r0; rec.Rounds > 0 {
		rec.RoundNodes = d.LastRoundNodes()
		rec.Maint = subCounts(d.Messages(), m0)
	}
	changed, all := d.Network().AdjacencyChanged()
	rec.Changed, rec.AllChanged = len(changed), all
	rec.Warm.Start = tr.now()
	if d.warmer != nil {
		d.warmer.WarmAll()
	}
	rec.Warm.End = tr.now()
	tr.ticks = append(tr.ticks, rec)
	tr.cur, tr.open = len(tr.ticks)-1, true
}

var _ workload.Driver = (*tracedDriver)(nil)

// subCounts returns a−b for the maintenance categories.
func subCounts(a, b engine.MessageCounts) engine.MessageCounts {
	return engine.MessageCounts{
		Selection:  a.Selection - b.Selection,
		Backtrack:  a.Backtrack - b.Backtrack,
		Validation: a.Validation - b.Validation,
		Recovery:   a.Recovery - b.Recovery,
		Retry:      a.Retry - b.Retry,
	}
}

// addCounts returns a+b for the maintenance categories.
func addCounts(a, b engine.MessageCounts) engine.MessageCounts {
	return engine.MessageCounts{
		Selection:  a.Selection + b.Selection,
		Backtrack:  a.Backtrack + b.Backtrack,
		Validation: a.Validation + b.Validation,
		Recovery:   a.Recovery + b.Recovery,
		Retry:      a.Retry + b.Retry,
	}
}

// runTraced drives the engine through one chunk of the window with every
// layer boundary timed. The window runs from the first chunk's start to
// the last chunk's end; each chunk's last tick ends when its Run returns.
func (tr *tracer) runTraced(e *engine.Engine, cfg workload.Config) (*workload.Report, error) {
	cfg.Scheme = tr.scheme
	start := tr.now()
	if len(tr.ticks) == 0 {
		tr.window.Start = start
	}
	rep, err := workload.Run(newTracedDriver(e, tr), cfg)
	tr.window.End = tr.now()
	if tr.open {
		tr.ticks[len(tr.ticks)-1].Tick.End = tr.window.End
		tr.open = false
	}
	return rep, err
}

// discovers returns every Discover span, grouped by worker.
func (tr *tracer) discovers() [][]discoverRec {
	out := make([][]discoverRec, len(tr.workers))
	for i, w := range tr.workers {
		out[i] = w.spans
	}
	return out
}

// attribution splits the window's wall time into layer self times. The
// five parts sum to the window by construction; attribute fails when a
// span lies outside its parent, which would make a self time negative.
type attribution struct {
	Window       int64
	Engine       int64 // Advance spans
	Neighborhood int64 // warm spans
	Scheme       int64 // union of the parallel Discover spans, per tick
	Workload     int64 // tick time outside the three above: batching, dispatch, flush, tallies
	Unattributed int64 // window time outside every tick: each Run's set-up and report, and the gaps between chunks
}

func (a attribution) sum() int64 {
	return a.Engine + a.Neighborhood + a.Scheme + a.Workload + a.Unattributed
}

func attribute(win interval, ticks []tickRec, byWorker [][]discoverRec) (attribution, error) {
	a := attribution{Window: win.dur(), Unattributed: win.dur()}
	perTick := make([][]interval, len(ticks))
	for _, spans := range byWorker {
		for _, s := range spans {
			if s.Tick < 0 || s.Tick >= len(ticks) {
				return a, fmt.Errorf("discover span names tick %d of %d", s.Tick, len(ticks))
			}
			t := ticks[s.Tick]
			if s.Start < t.Warm.End || s.End > t.Tick.End || s.End < s.Start {
				return a, fmt.Errorf("discover span %v lies outside the query phase of tick %d", s.interval, s.Tick)
			}
			perTick[s.Tick] = append(perTick[s.Tick], s.interval)
		}
	}
	for i, t := range ticks {
		if t.Tick.Start < win.Start || t.Tick.End > win.End ||
			t.Advance.Start < t.Tick.Start || t.Advance.End > t.Warm.Start ||
			t.Warm.Start > t.Warm.End || t.Warm.End > t.Tick.End {
			return a, fmt.Errorf("tick %d spans are not nested in order", i)
		}
		q := unionLen(perTick[i])
		a.Engine += t.Advance.dur()
		a.Neighborhood += t.Warm.dur()
		a.Scheme += q
		a.Workload += t.Tick.dur() - t.Advance.dur() - t.Warm.dur() - q
		a.Unattributed -= t.Tick.dur()
	}
	if a.Unattributed < 0 {
		return a, fmt.Errorf("ticks overlap: they cover more than the window")
	}
	return a, nil
}

// unionLen returns the length of the union of ivs, which it sorts.
func unionLen(ivs []interval) int64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].Start < ivs[j].Start })
	var total int64
	var cur interval
	for i, iv := range ivs {
		switch {
		case i == 0:
			cur = iv
		case iv.Start > cur.End:
			total += cur.dur()
			cur = iv
		case iv.End > cur.End:
			cur.End = iv.End
		}
	}
	if len(ivs) > 0 {
		total += cur.dur()
	}
	return total
}

// traceEvent is one complete event of the Chrome trace-event format, which
// chrome://tracing and Perfetto open directly.
type traceEvent struct {
	Name string            `json:"name"`
	Ph   string            `json:"ph"`
	Ts   float64           `json:"ts"`
	Dur  float64           `json:"dur"`
	Pid  int               `json:"pid"`
	Tid  int               `json:"tid"`
	Args map[string]string `json:"args,omitempty"`
}

// write saves the spans as a trace-event file at path. Driver-side spans
// are thread 0; query worker w is thread w+1.
func (tr *tracer) write(path string) error {
	var evs []traceEvent
	add := func(name string, iv interval, tid int, args map[string]string) {
		evs = append(evs, traceEvent{Name: name, Ph: "X", Ts: float64(iv.Start) / 1e3,
			Dur: float64(iv.dur()) / 1e3, Pid: 1, Tid: tid, Args: args})
	}
	for i, name := range []string{"setup.build", "setup.select", "setup.warm"} {
		add(name, tr.setup[i], 0, nil)
	}
	add("window", tr.window, 0, nil)
	for i, t := range tr.ticks {
		tag := "refresh"
		if t.Rounds > 0 {
			tag = "round"
		}
		add("tick", t.Tick, 0, map[string]string{"tick": fmt.Sprint(i)})
		add("engine.advance", t.Advance, 0, map[string]string{"kind": tag})
		add("neighborhood.warm", t.Warm, 0, nil)
	}
	for _, w := range tr.workers {
		for _, s := range w.spans {
			add("scheme.discover", s.interval, w.id+1, map[string]string{"tick": fmt.Sprint(s.Tick)})
		}
	}
	buf, err := json.Marshal(map[string]any{"traceEvents": evs})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, buf, 0o644)
}
