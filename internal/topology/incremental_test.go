package topology_test

import (
	"testing"

	"card/internal/geom"
	"card/internal/topology"
	"card/internal/topology/topotest"
	"card/internal/xrand"
)

// build returns the snapshot a fresh Builder produces for one update: a
// full grid build.
func build(pos []geom.Point, area geom.Rect, lm topology.LinkModel, down []bool) *topology.Graph {
	return topology.NewBuilder(len(pos), area, lm).Update(pos, down)
}

func TestBuildNaiveMatchesGrid(t *testing.T) {
	area := geom.Rect{W: 400, H: 300}
	rng := xrand.New(11)
	lm := topology.LinkModel{Uniform: 55}
	for _, n := range []int{1, 2, 10, 120, 400} {
		pos := topology.UniformPositions(n, area, rng)
		topotest.Equal(t, topotest.Naive(pos, lm, nil), build(pos, area, lm, nil))
	}
}

// TestBuilderMatchesFullRebuild drives a Builder through a random mobility
// trace where a random subset of nodes moves each step (including the
// empty and full subsets) and checks that every incremental snapshot is
// structurally identical to the all-pairs reference.
func TestBuilderMatchesFullRebuild(t *testing.T) {
	const n = 250
	area := geom.Rect{W: 600, H: 600}
	lm := topology.LinkModel{Uniform: 60}
	rng := xrand.New(7)
	pos := topology.UniformPositions(n, area, rng)
	b := topology.NewBuilder(n, area, lm)
	topotest.Equal(t, topotest.Naive(pos, lm, nil), b.Update(pos, nil))

	for step := 0; step < 60; step++ {
		// Vary the churn: steps cycle through no movement, a handful of
		// movers, a large subset (above the full-rebuild threshold), and
		// everyone.
		var movers int
		switch step % 4 {
		case 0:
			movers = 0
		case 1:
			movers = 5
		case 2:
			movers = n / 2
		case 3:
			movers = n
		}
		for k := 0; k < movers; k++ {
			i := rng.Intn(n)
			pos[i] = area.Clamp(geom.Point{
				X: pos[i].X + rng.Range(-80, 80),
				Y: pos[i].Y + rng.Range(-80, 80),
			})
		}
		topotest.Equal(t, topotest.Naive(pos, lm, nil), b.Update(pos, nil))
	}
}

// TestBuilderTeleport moves one node across the whole area — exercising
// grid removal and reinsertion into distant buckets.
func TestBuilderTeleport(t *testing.T) {
	area := geom.Rect{W: 500, H: 500}
	lm := topology.LinkModel{Uniform: 80}
	rng := xrand.New(3)
	pos := topology.UniformPositions(100, area, rng)
	b := topology.NewBuilder(100, area, lm)
	b.Update(pos, nil)
	for step := 0; step < 20; step++ {
		i := rng.Intn(100)
		pos[i] = geom.Point{X: rng.Range(0, area.W), Y: rng.Range(0, area.H)}
		topotest.Equal(t, topotest.Naive(pos, lm, nil), b.Update(pos, nil))
	}
}

func TestBuilderUpdateMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on mismatched position count")
		}
	}()
	b := topology.NewBuilder(4, geom.Rect{W: 10, H: 10}, topology.LinkModel{Uniform: 2})
	b.Update(make([]geom.Point, 3), nil)
}
