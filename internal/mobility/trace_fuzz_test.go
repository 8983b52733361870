package mobility

import (
	"math"
	"slices"
	"strings"
	"testing"

	"card/internal/geom"
)

// FuzzParseSetdest feeds arbitrary text to the setdest parser. Any input
// must either fail to parse or yield finite initial positions and event
// values; a parsed trace must either be refused by NewTraceReplay (with an
// inferred area) or replay to finite positions inside its area at every
// sampled time.
func FuzzParseSetdest(f *testing.F) {
	f.Add(sampleTrace)
	f.Add("$node_(0) set X_ 1\n$node_(0) set Y_ 1\n$ns_ at 1.0 \"$node_(0) setdest 5.0 5.0 1e-300\"")
	f.Add("$node_(0) set X_ -5\n$node_(0) set Y_ 3\n$ns_ at -2 \"$node_(0) setdest 1e300 -1e300 1e300\"")
	f.Add("$node_(1) set X_ 0\n$node_(1) set Y_ 0\n$node_(0) set X_ 1e308\n$node_(0) set Y_ 1e-308\n" +
		"$ns_ at 1e308 \"$node_(0) setdest -1e308 2.0 3.0\"\n$ns_ at 0.5 \"$node_(1) setdest 4 4 0\"")
	f.Add("$node_(0) set X_ NaN\n$node_(0) set Y_ Inf")
	// A course wider than the float range: its interpolation once read
	// Inf·0 = NaN.
	f.Add("$node_(1) set X_ 0\n$node_(1) set Y_ 0\n$node_(0) set X_ 1e308\n$node_(0) set Y_ 1\n" +
		"$ns_ at 0 $node_(0) setdest -1e308 0 1")
	f.Fuzz(func(t *testing.T, src string) {
		tr, err := ParseSetdest(strings.NewReader(src))
		if err != nil {
			return
		}
		finite := func(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
		var times []float64
		for i, p := range tr.Initial {
			if !finite(p.X) || !finite(p.Y) {
				t.Fatalf("node %d initial position %v is not finite", i, p)
			}
			for _, e := range tr.Events[i] {
				if !finite(e.T) || !finite(e.X) || !finite(e.Y) || !finite(e.Speed) {
					t.Fatalf("node %d event %+v is not finite", i, e)
				}
				times = append(times, max(e.T, 0))
			}
		}
		m, err := NewTraceReplay(tr, geom.Rect{})
		if err != nil {
			return
		}
		// Sample at every command time, halfway to the next one and
		// past the last, in the non-decreasing order replay requires.
		slices.Sort(times)
		times = slices.Compact(times)
		samples := []float64{0}
		for i, tm := range times {
			samples = append(samples, tm)
			if i+1 < len(times) {
				samples = append(samples, tm+(times[i+1]-tm)/2)
			}
		}
		if len(times) > 0 {
			samples = append(samples, times[len(times)-1]+1)
		}
		area := m.Area()
		pos := make([]geom.Point, m.N())
		for _, tm := range samples {
			m.PositionsAt(tm, pos)
			for i, p := range pos {
				if !finite(p.X) || !finite(p.Y) || !area.Contains(p) {
					t.Fatalf("t=%v node %d at %v, outside %v or not finite", tm, i, p, area)
				}
			}
		}
	})
}
