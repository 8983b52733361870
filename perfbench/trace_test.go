package main

import (
	"strings"
	"testing"
)

func TestUnionLen(t *testing.T) {
	for _, c := range []struct {
		name string
		ivs  []interval
		want int64
	}{
		{"empty", nil, 0},
		{"one", []interval{{5, 9}}, 4},
		{"disjoint", []interval{{20, 30}, {0, 10}}, 20},
		{"overlapping", []interval{{0, 10}, {5, 15}}, 15},
		{"nested", []interval{{0, 20}, {5, 10}}, 20},
		{"touching", []interval{{0, 10}, {10, 20}}, 20},
		{"chain", []interval{{8, 12}, {0, 5}, {4, 9}, {30, 31}}, 13},
	} {
		if got := unionLen(c.ivs); got != c.want {
			t.Errorf("%s: unionLen = %d, want %d", c.name, got, c.want)
		}
	}
}

// Two query workers run overlapping Discover calls in one tick: the scheme
// layer is charged their union, not their sum, and the five parts still
// add up to the window.
func TestAttributeOverlappingParallelChildren(t *testing.T) {
	win := interval{0, 250}
	ticks := []tickRec{
		{Tick: interval{10, 110}, Advance: interval{10, 30}, Warm: interval{30, 40}},
		{Tick: interval{110, 240}, Advance: interval{110, 200}, Warm: interval{200, 200}},
	}
	workers := [][]discoverRec{
		{{0, interval{40, 70}}, {0, interval{70, 80}}, {1, interval{205, 215}}},
		{{0, interval{50, 90}}, {1, interval{210, 230}}},
	}
	a, err := attribute(win, ticks, workers)
	if err != nil {
		t.Fatal(err)
	}
	want := attribution{
		Window:       250,
		Engine:       20 + 90,
		Neighborhood: 10 + 0,
		Scheme:       (90 - 40) + (230 - 205),
		Workload:     (100 - 20 - 10 - 50) + (130 - 90 - 0 - 25),
		Unattributed: 10 + 10,
	}
	if a != want {
		t.Fatalf("attribution = %+v, want %+v", a, want)
	}
	if a.sum() != a.Window {
		t.Fatalf("parts sum to %d, window is %d", a.sum(), a.Window)
	}
}

func TestAttributeRejectsMisplacedSpans(t *testing.T) {
	win := interval{0, 100}
	tick := tickRec{Tick: interval{0, 100}, Advance: interval{0, 20}, Warm: interval{20, 30}}
	for _, c := range []struct {
		name    string
		ticks   []tickRec
		workers [][]discoverRec
		want    string
	}{
		{"discover before warm ends", []tickRec{tick}, [][]discoverRec{{{0, interval{25, 40}}}}, "outside the query phase"},
		{"discover past tick end", []tickRec{tick}, [][]discoverRec{{{0, interval{90, 110}}}}, "outside the query phase"},
		{"unknown tick", []tickRec{tick}, [][]discoverRec{{{3, interval{40, 50}}}}, "names tick 3"},
		{"tick past window", []tickRec{{Tick: interval{0, 120}, Advance: interval{0, 20}, Warm: interval{20, 30}}}, nil, "not nested"},
		{"overlapping ticks", []tickRec{tick, tick}, nil, "cover more than the window"},
	} {
		_, err := attribute(win, c.ticks, c.workers)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want one containing %q", c.name, err, c.want)
		}
	}
}
