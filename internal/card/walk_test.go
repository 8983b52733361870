package card

import (
	"fmt"
	"slices"
	"testing"

	"card/internal/geom"
	"card/internal/manet"
	"card/internal/mobility"
	"card/internal/neighborhood"
	"card/internal/topology"
	"card/internal/xrand"
)

// refWalkEM is the reference edge-method walk: the straightforward kernel
// that rescans the holder's whole neighbor list at every step, including
// every return from a backtrack. walkEM must match it draw for draw.
func refWalkEM(m *Maintainer, route []NodeID) ([]NodeID, bool) {
	m.visitGen++
	gen := m.visitGen
	for _, n := range route {
		m.visited[n] = gen
	}
	stack := append([]NodeID(nil), route...)
	r := m.p.cfg.MaxContactDist
	directed := m.p.net.Directed()
	var cand []NodeID
	for {
		x := stack[len(stack)-1]
		d := len(stack) - 1
		cand = cand[:0]
		if d < r {
			for _, y := range m.p.net.Neighbors(x) {
				if m.visited[y] == gen {
					continue
				}
				if directed && !m.p.net.Adjacent(y, x) {
					continue
				}
				cand = append(cand, y)
			}
		}
		if len(cand) == 0 {
			m.sendHop(manet.CatBacktrack)
			stack = stack[:len(stack)-1]
			if len(stack) < len(route) {
				m.sendHops(manet.CatBacktrack, len(stack)-1)
				return nil, true
			}
			continue
		}
		y := cand[m.rng.Intn(len(cand))]
		m.visited[y] = gen
		stack = append(stack, y)
		m.sendHop(manet.CatCSQ)
		if m.accept(y, len(stack)-1) {
			return m.acceptContact(stack), false
		}
	}
}

// refWalkPM is the reference probabilistic-method walk, rescanning the
// holder's neighbor list at every step.
func refWalkPM(m *Maintainer, route []NodeID) ([]NodeID, bool) {
	stack := append([]NodeID(nil), route...)
	r := m.p.cfg.MaxContactDist
	directed := m.p.net.Directed()
	budget := m.csqBudget()
	var cand []NodeID
	for budget > 0 {
		x := stack[len(stack)-1]
		d := len(stack) - 1
		parent := stack[len(stack)-2]
		cand = cand[:0]
		if d < r {
			for _, y := range m.p.net.Neighbors(x) {
				if y == parent {
					continue
				}
				if directed && !m.p.net.Adjacent(y, x) {
					continue
				}
				cand = append(cand, y)
			}
		}
		if len(cand) == 0 {
			m.sendHop(manet.CatBacktrack)
			budget--
			stack = stack[:len(stack)-1]
			if len(stack) < len(route) {
				m.sendHops(manet.CatBacktrack, len(stack)-1)
				return nil, true
			}
			continue
		}
		y := cand[m.rng.Intn(len(cand))]
		stack = append(stack, y)
		m.sendHop(manet.CatCSQ)
		budget--
		if m.accept(y, len(stack)-1) {
			return m.acceptContact(stack), false
		}
	}
	m.sendHops(manet.CatBacktrack, len(stack)-1)
	return nil, true
}

// walkField builds a static network of n nodes for the walk kernel tests:
// spread > 0 draws per-node ranges in txRange·(1 ± spread), making the
// graph directed; barrier raises a partition barrier down the middle.
func walkField(seed uint64, n int, txRange, spread float64, barrier bool) *manet.Network {
	rng := xrand.New(seed)
	pts := topology.UniformPositions(n, testArea, rng)
	cfg := manet.Config{Link: topology.LinkModel{Uniform: txRange}}
	if spread > 0 {
		cfg.Link.Ranges = make([]float64, n)
		for i := range cfg.Link.Ranges {
			cfg.Link.Ranges[i] = txRange * (1 + spread*rng.Range(-1, 1))
		}
	}
	if barrier {
		cfg.Partition = manet.PartitionConfig{Period: 10, Duration: 5}
	}
	net := manet.NewNetwork(mobility.NewStatic(pts, testArea), cfg, xrand.New(seed+1000))
	if barrier {
		net.RefreshAt(6) // inside the partition window
	}
	return net
}

// walkStats summarizes a comparison run so callers can check it exercised
// both outcomes.
type walkStats struct{ walks, accepted, exhausted int }

// compareWalks runs the production kernel and the reference on twin
// Maintainers over p, from every source in srcs through each of its edge
// nodes, and fails on the first divergence in the returned path, the
// exhausted flag, the per-category tallies, the statistics or the next
// generator draw. Before each walk a share saturate of all nodes is marked
// ineligible on top of the protocol's own overlap set, which drives walks
// into the long, backtrack-heavy exhaustion regime.
func compareWalks(t testing.TB, p *Protocol, srcs []NodeID, saturate float64, seed uint64) walkStats {
	t.Helper()
	got, want := p.NewMaintainer(), p.NewMaintainer()
	sat := xrand.New(seed)
	var ws walkStats
	for _, u := range srcs {
		for _, e := range p.nb.EdgeNodes(u) {
			route := p.nb.Route(u, e)
			if route == nil {
				continue
			}
			ws.walks++
			for _, m := range []*Maintainer{got, want} {
				m.rng.Reseed(p.rng.StreamSeed(uint64(u), uint64(e)))
				m.computeIneligible(u)
			}
			for x := 0; x < p.net.N(); x++ {
				if sat.Float64() < saturate {
					got.ineligible[x] = got.ineligGen
					want.ineligible[x] = want.ineligGen
				}
			}
			var gp, wp []NodeID
			var gx, wx bool
			if p.cfg.Method == EM {
				gp, gx = got.walkEM(route)
				wp, wx = refWalkEM(want, route)
			} else {
				gp, gx = got.walkPM(route)
				wp, wx = refWalkPM(want, route)
			}
			where := fmt.Sprintf("%v walk %d->%d", p.cfg.Method, u, e)
			if !slices.Equal(gp, wp) || gx != wx {
				t.Fatalf("%s: kernel returned (%v, %v), reference (%v, %v)", where, gp, gx, wp, wx)
			}
			if got.pend != want.pend {
				t.Fatalf("%s: kernel tallies %+v, reference %+v", where, got.pend, want.pend)
			}
			if got.stats != want.stats {
				t.Fatalf("%s: kernel stats %+v, reference %+v", where, got.stats, want.stats)
			}
			if g, w := got.rng.Uint64(), want.rng.Uint64(); g != w {
				t.Fatalf("%s: next draw %d after the kernel, %d after the reference", where, g, w)
			}
			if gp != nil {
				ws.accepted++
			}
			if gx {
				ws.exhausted++
			}
		}
	}
	return ws
}

// walkProtocol wires a protocol with the given method and radii over net.
func walkProtocol(t testing.TB, net *manet.Network, method Method, R, r int, seed uint64) *Protocol {
	t.Helper()
	p, err := New(net, neighborhood.NewOracle(net, R, 0), Config{R: R, MaxContactDist: r, NoC: 4, Method: method}, xrand.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestWalkKernelMatchesReference pins the frame-list CSQ kernel to the
// rescanning reference walks on scalar, directed (per-node ranges) and
// partitioned fields, under every method, from unsaturated to fully
// saturated regions.
func TestWalkKernelMatchesReference(t *testing.T) {
	fields := []struct {
		name    string
		spread  float64
		barrier bool
	}{
		{"scalar", 0, false},
		{"range-spread", 0.4, false},
		{"barrier", 0, true},
		{"range-spread-barrier", 0.3, true},
	}
	for fi, f := range fields {
		net := walkField(uint64(40+fi), 150, 120, f.spread, f.barrier)
		for _, method := range []Method{EM, PM1, PM2} {
			t.Run(fmt.Sprintf("%s/%v", f.name, method), func(t *testing.T) {
				p := walkProtocol(t, net, method, 2, 7, uint64(fi))
				srcs := make([]NodeID, 0, 30)
				for u := 0; u < net.N(); u += 5 {
					srcs = append(srcs, NodeID(u))
				}
				var total walkStats
				for i, sat := range []float64{0, 0.5, 0.9, 1} {
					ws := compareWalks(t, p, srcs, sat, uint64(i))
					total.walks += ws.walks
					total.accepted += ws.accepted
					total.exhausted += ws.exhausted
				}
				if total.accepted == 0 || total.exhausted == 0 {
					t.Fatalf("comparison did not exercise both outcomes: %+v", total)
				}
			})
		}
	}
}

// FuzzWalkKernel compares the kernel against the reference walks over
// fuzzed fields: seed, node count, range spread, walk radius r and the
// saturated share of nodes.
func FuzzWalkKernel(f *testing.F) {
	f.Add(uint64(1), uint16(80), uint8(0), uint8(6), uint8(90))
	f.Add(uint64(2), uint16(200), uint8(40), uint8(10), uint8(100))
	f.Add(uint64(3), uint16(40), uint8(70), uint8(3), uint8(0))
	f.Fuzz(func(t *testing.T, seed uint64, n uint16, spread, r, saturate uint8) {
		nodes := 10 + int(n)%250
		sp := float64(spread%90) / 100
		rr := 2 + int(r)%12
		net := walkField(seed, nodes, 110, sp, seed%2 == 1)
		sat := float64(saturate%101) / 100
		for _, method := range []Method{EM, PM1} {
			p := walkProtocol(t, net, method, 1+int(seed%2), max(rr, 3), seed)
			srcs := []NodeID{NodeID(seed % uint64(nodes)), NodeID((seed / 7) % uint64(nodes))}
			compareWalks(t, p, srcs, sat, seed)
		}
	})
}

// BenchmarkCSQWalk times the CSQ walk kernel alone over a dense group
// field (RPGM teams, the rescue-groups-1k geometry) and a directed
// field (±50% per-node ranges). One op is a fixed sweep of walks — from
// every tenth node through each of its edge nodes, the overlap set
// computed once per source, each walk on its own reseeded stream — so
// hops/op, the walks' CatCSQ + CatBacktrack hops, is a deterministic work
// unit and ns/hop the kernel's cost per unit.
func BenchmarkCSQWalk(b *testing.B) {
	area := geom.Rect{W: 2000, H: 2000}
	groups, err := mobility.NewRPGM(1000, area, mobility.DefaultRPGM(25), xrand.New(1))
	if err != nil {
		b.Fatal(err)
	}
	dense := manet.New(groups, 100, xrand.New(2))
	rng := xrand.New(3)
	hetArea := geom.Rect{W: 1500, H: 1500}
	ranges := make([]float64, 1500)
	for i := range ranges {
		ranges[i] = 100 * (1 + 0.5*rng.Range(-1, 1))
	}
	directed := manet.NewNetwork(
		mobility.NewStatic(topology.UniformPositions(len(ranges), hetArea, rng), hetArea),
		manet.Config{Link: topology.LinkModel{Uniform: 100, Ranges: ranges}}, xrand.New(4))
	fields := []struct {
		name string
		net  *manet.Network
		R, r int
	}{
		{"groups-1k", dense, 3, 14},
		{"directed-1.5k", directed, 2, 10},
	}
	for _, f := range fields {
		for _, method := range []Method{EM, PM1} {
			b.Run(fmt.Sprintf("%s/%v", f.name, method), func(b *testing.B) {
				p := walkProtocol(b, f.net, method, f.R, f.r, 1)
				type walk struct {
					u     NodeID
					route []NodeID
				}
				var walks []walk
				for u := 0; u < f.net.N(); u += 10 {
					for _, e := range p.nb.EdgeNodes(NodeID(u)) {
						if route := p.nb.Route(NodeID(u), e); route != nil {
							walks = append(walks, walk{NodeID(u), route})
						}
					}
				}
				if len(walks) == 0 {
					b.Fatal("field has no edge nodes")
				}
				m := p.NewMaintainer()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					for j, w := range walks {
						m.rng.Reseed(uint64(j))
						if j == 0 || w.u != walks[j-1].u {
							m.computeIneligible(w.u)
						}
						if method == EM {
							m.walkEM(w.route)
						} else {
							m.walkPM(w.route)
						}
					}
				}
				b.StopTimer()
				hops := m.pend.Sum(manet.CatCSQ, manet.CatBacktrack)
				if hops > 0 {
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(hops), "ns/hop")
				}
				b.ReportMetric(float64(hops)/float64(b.N), "hops/op")
			})
		}
	}
}
