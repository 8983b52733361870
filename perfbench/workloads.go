package main

import (
	"fmt"
	"math"

	"card/internal/workload"
	"card/internal/xrand"
)

// tick is the traffic batching step. It is a power of two, so every tick
// boundary is exact in binary and lands on the 2 s maintenance boundaries.
const tick = 0.5

// qps is the offered CARD load of every workload (Zipf 0.9). At 100 qps the
// mean messages per query of a window moves by under 8% between traffic
// seeds; at 20 qps it moved by 15%. Queries stay under 2% of host time on
// the two maintenance workloads.
const qps = 100

// trials is how many set-ups and windows the untraced run measures.
const trials = 3

// chunk is the simulated time one RunWorkload call covers: one maintenance
// period of every preset here, so each chunk holds exactly one round. The
// window is a run of chunks; sim_s_per_s charges each chunk its median
// host time over the trials, since on a shared 2-core host a single
// one-second span varies by ±15%.
const chunk = 2.0

// spec is one named workload: a built-in preset, the CARD traffic offered
// over the measured window, and where that window sits in simulated time.
type spec struct {
	Name   string
	Preset string
	Why    string
	// Resources and Replicas size the catalogue the traffic asks for.
	Resources int
	Replicas  int
	// WarmTo is the simulated time set-up advances to before the window.
	WarmTo float64
	// SimRate is the nominal simulated seconds per host second on a 2-core
	// x86 host; it turns a host-time share into a window length that does
	// not depend on the host, so every simulated figure repeats for a seed.
	SimRate float64
	// MinEnd and MaxEnd clamp the window end to the workload's regime; both
	// lie a whole number of chunks after WarmTo.
	MinEnd, MaxEnd float64
	// regime checks the window against the regime the workload names.
	regime func(f regimeFacts) error
}

// regimeFacts is what a run observed about its window. The untraced run
// fills the end-of-window fields only; the traced run fills the per-tick
// ones too (hasTicks).
type regimeFacts struct {
	nodes        int
	end          float64 // simulated time at window end
	lastRound    int     // LastRoundNodes at window end
	partitioned  bool    // barrier up at window end
	hasTicks     bool
	roundNodes   []int // LastRoundNodes of every round in the window
	fullRebuilds int
}

var specs = []spec{
	{
		Name:   wGroups,
		Preset: "rescue-groups-1k",
		Why: "dense RPGM teams at R=3: full maintenance rounds (card maintainer, view re-warm, RPGM scan) " +
			"are ~96% of host time; queries are light",
		Resources: 256, Replicas: 4,
		WarmTo: 0, SimRate: 5, MinEnd: 8, MaxEnd: 120,
		regime: func(f regimeFacts) error {
			if f.lastRound != f.nodes {
				return fmt.Errorf("last round covered %d of %d nodes", f.lastRound, f.nodes)
			}
			for _, k := range f.roundNodes {
				if k != f.nodes {
					return fmt.Errorf("a round covered %d of %d nodes", k, f.nodes)
				}
			}
			return nil
		},
	},
	{
		Name:   wHetero,
		Preset: "disaster-hetero-5k",
		Why: "the only directed, partitioned preset: incremental directed builder, barrier full rebuilds, " +
			"bidirectional-hop walks and epoch-wiped view re-warm",
		Resources: 512, Replicas: 8,
		// Nodes leave their initial 30 s pause at t=30 and set-up carries
		// them on to t=38; the barrier rises at t=45 (the last 15 s of every
		// 60 s), so the window holds one onset. A longer window would only
		// repeat ~1 s rounds and stretch each run past 40 s.
		WarmTo: 38, SimRate: 1.6, MinEnd: 46, MaxEnd: 58,
		regime: func(f regimeFacts) error {
			if !f.partitioned {
				return fmt.Errorf("window ended at t=%g outside the partition", f.end)
			}
			if f.hasTicks && f.fullRebuilds < 1 {
				return fmt.Errorf("no full topology rebuild in the window")
			}
			return nil
		},
	},
	{
		Name:   wRWP,
		Preset: "citywide-rwp-100k",
		Why: "read-dominated serving at 100k nodes: Querier/DSQ over a large working set, Retain-kept views, " +
			"100k selection in set-up",
		Resources: 512, Replicas: 8,
		// The deficit drain ends near t=34; at t=60 every node leaves its
		// first pause at once and rounds jump to ~50k nodes, so the window
		// ends before then.
		WarmTo: 40, SimRate: 6, MinEnd: 44, MaxEnd: 58,
		regime: func(f regimeFacts) error {
			if f.end >= 60 {
				return fmt.Errorf("window reaches t=%g, past the mass departure at t=60", f.end)
			}
			if f.lastRound > maxQuietRound {
				return fmt.Errorf("last round covered %d nodes, want about 0", f.lastRound)
			}
			for _, k := range f.roundNodes {
				if k > maxQuietRound {
					return fmt.Errorf("a round covered %d nodes, want about 0", k)
				}
			}
			return nil
		},
	},
}

// maxQuietRound is the most nodes a round of the quiet 100k window may
// cover: the tail of the deficit drain, never a wave of movement.
const maxQuietRound = 4

func lookupSpec(name string) (spec, error) {
	for _, s := range specs {
		if s.Name == name {
			return s, nil
		}
	}
	names := make([]string, len(specs))
	for i, s := range specs {
		names[i] = s.Name
	}
	return spec{}, fmt.Errorf("unknown workload %q (have %v and all)", name, names)
}

// windowEnd sizes one trial's window from the run's host-time budget: its
// share of seconds at the nominal rate, in whole chunks, clamped to the
// regime.
func (s spec) windowEnd(seconds int) float64 {
	end := s.WarmTo + math.Round(float64(seconds)/trials*s.SimRate/chunk)*chunk
	return math.Min(math.Max(end, s.MinEnd), s.MaxEnd)
}

// traffic returns the window's traffic, one workload configuration per
// chunk. The run seed drives every chunk's arrivals, sources, resources
// and holder placement; chunk j draws its stream seed from stream j.
func (s spec) traffic(seed uint64, seconds int) []workload.Config {
	n := int(math.Round((s.windowEnd(seconds) - s.WarmTo) / chunk))
	root := xrand.New(seed ^ 0xc0ffee)
	out := make([]workload.Config, n)
	for j := range out {
		out[j] = workload.Config{
			QPS:       qps,
			Duration:  chunk,
			Tick:      tick,
			Resources: s.Resources,
			Replicas:  s.Replicas,
			ZipfS:     0.9,
			Seed:      root.Derive(uint64(j)).Uint64(),
		}
	}
	return out
}
