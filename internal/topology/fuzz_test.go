package topology_test

import (
	"fmt"
	"slices"
	"testing"

	"card/internal/geom"
	"card/internal/topology"
	"card/internal/topology/topotest"
	"card/internal/xrand"
)

// FuzzBuilderAgreesWithNaive drives two Builders over one fuzzed link
// model — per-node range spread, an optional barrier toggled per step,
// an initial down-mask density — through a fuzzed sequence of moves,
// teleports, mask flips and mass moves. One builder finds the moved nodes
// itself (Update), the other is handed the touched nodes (UpdateMoved,
// with duplicates and untouched entries mixed in). After every update
// both snapshots must equal the all-pairs reference — out- and
// in-adjacency and Links — and Changed must be exact against the previous
// snapshot: a node is listed iff one of its lists changed.
//
// The move sequence is read two bytes per operation (op, node):
// op%8 ∈ {0,1,2} drifts the node by up to ±(op/8)·5 m, 3 teleports it,
// 4 flips its mask bit, 5 ends the step, 6 drifts every node a little,
// and 7 lists the node as moved without moving it.
func FuzzBuilderAgreesWithNaive(f *testing.F) {
	f.Add(uint64(1), uint8(60), uint8(0), false, uint8(0), uint8(0), []byte{0x40, 3, 5, 0, 0x81, 9, 5, 0})
	f.Add(uint64(2), uint8(90), uint8(128), false, uint8(0), uint8(40), []byte{4, 7, 0xf9, 2, 5, 0, 6, 0, 5, 0, 3, 11})
	f.Add(uint64(3), uint8(70), uint8(60), true, uint8(0xa5), uint8(20), []byte{1, 1, 5, 0, 2, 3, 5, 0, 4, 4, 5, 0, 7, 5, 5, 0})
	f.Add(uint64(4), uint8(120), uint8(200), true, uint8(0x0f), uint8(90), []byte{6, 0, 6, 0, 5, 0, 4, 1, 4, 1, 7, 1, 5, 0})
	f.Add(uint64(5), uint8(1), uint8(0), true, uint8(0xff), uint8(0), []byte{3, 0, 5, 0, 4, 0, 5, 0})
	f.Fuzz(func(t *testing.T, seed uint64, nodes, spread uint8, barrier bool, toggles, density uint8, moves []byte) {
		if len(moves) > 512 {
			moves = moves[:512]
		}
		n := 1 + int(nodes)%150
		area := geom.Rect{W: 400, H: 400}
		rng := xrand.New(seed)
		pos := topology.UniformPositions(n, area, rng)
		lm := topology.LinkModel{Uniform: 60}
		if spread > 0 {
			lm.Ranges = heteroRanges(n, 60, float64(spread)/256, rng.Derive(1))
		}
		if barrier {
			lm.BarrierX = area.W / 2
		}
		down := make([]bool, n)
		for i := range down {
			down[i] = rng.Bool(float64(density) / 256)
		}
		scan := &trackedBuilder{b: topology.NewBuilder(n, area, lm)}
		listed := &trackedBuilder{b: topology.NewBuilder(n, area, lm)}
		var touched []topology.NodeID

		step := 0
		update := func() {
			t.Helper()
			if barrier {
				lm.BarrierActive = toggles>>(step%8)&1 == 1
				scan.b.SetBarrier(lm.BarrierActive)
				listed.b.SetBarrier(lm.BarrierActive)
			}
			want := topotest.Naive(pos, lm, down)
			if err := scan.check(want, scan.b.Update(pos, down)); err != nil {
				t.Fatalf("step %d, Update: %v", step, err)
			}
			if err := listed.check(want, listed.b.UpdateMoved(pos, down, touched)); err != nil {
				t.Fatalf("step %d, UpdateMoved: %v", step, err)
			}
			touched = touched[:0]
			step++
		}
		update()
		for k := 0; k+1 < len(moves); k += 2 {
			op, i := moves[k], int(moves[k+1])%n
			amp := float64(op/8) * 5
			switch op % 8 {
			case 0, 1, 2:
				pos[i] = area.Clamp(geom.Point{X: pos[i].X + rng.Range(-amp, amp), Y: pos[i].Y + rng.Range(-amp, amp)})
			case 3:
				pos[i] = geom.Point{X: rng.Range(0, area.W), Y: rng.Range(0, area.H)}
			case 4:
				down[i] = !down[i]
			case 5:
				update()
				continue
			case 6:
				for j := range pos {
					pos[j] = area.Clamp(geom.Point{X: pos[j].X + rng.Range(-10, 10), Y: pos[j].Y + rng.Range(-10, 10)})
					touched = append(touched, topology.NodeID(j))
				}
				continue
			}
			touched = append(touched, topology.NodeID(i), topology.NodeID(i))
		}
		update()
	})
}

// trackedBuilder pairs a Builder with a deep copy of its previous
// snapshot's lists, so Changed can be checked for exactness.
type trackedBuilder struct {
	b           *topology.Builder
	prevOut     [][]topology.NodeID
	prevIn      [][]topology.NodeID
	initialized bool
}

func (tb *trackedBuilder) check(want *topotest.Ref, g *topology.Graph) error {
	if err := topotest.Diff(want, g); err != nil {
		return err
	}
	changed, all := tb.b.Changed()
	if !tb.initialized && !all {
		return fmt.Errorf("first update did not report a full build")
	}
	if all && len(changed) != 0 {
		return fmt.Errorf("full rebuild listed %d changed nodes", len(changed))
	}
	if !all {
		listed := make([]bool, g.N())
		for _, u := range changed {
			if listed[u] {
				return fmt.Errorf("node %d listed twice in Changed", u)
			}
			listed[u] = true
		}
		for i := range listed {
			u := topology.NodeID(i)
			same := slices.Equal(tb.prevOut[u], g.Neighbors(u)) && slices.Equal(tb.prevIn[u], g.InNeighbors(u))
			if same == listed[u] {
				return fmt.Errorf("node %d: listed in Changed = %v, but lists changed = %v", u, listed[u], !same)
			}
		}
	}
	tb.prevOut, tb.prevIn = make([][]topology.NodeID, g.N()), make([][]topology.NodeID, g.N())
	for i := range tb.prevOut {
		tb.prevOut[i] = slices.Clone(g.Neighbors(topology.NodeID(i)))
		tb.prevIn[i] = slices.Clone(g.InNeighbors(topology.NodeID(i)))
	}
	tb.initialized = true
	return nil
}
