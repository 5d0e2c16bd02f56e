package roadnet

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"repro/internal/geo"
	"repro/internal/obs"
)

func segBetween(t testing.TB, n *Network, from, to NodeID) SegmentID {
	t.Helper()
	for _, sid := range n.Out(from) {
		if n.Segment(sid).To == to {
			return sid
		}
	}
	t.Fatalf("no segment %d->%d", from, to)
	return 0
}

func TestNodeDist(t *testing.T) {
	n := buildGrid(t, 5, 5)
	r := NewRouter(n)
	// Manhattan distance on the lattice.
	d, ok := r.NodeDist(0, NodeID(4*5+4)) // corner to corner
	if !ok || math.Abs(d-800) > 1e-9 {
		t.Errorf("NodeDist = %v ok=%v, want 800", d, ok)
	}
	if d, ok := r.NodeDist(3, 3); !ok || d != 0 {
		t.Errorf("self NodeDist = %v ok=%v", d, ok)
	}
}

func TestNodePath(t *testing.T) {
	n := buildGrid(t, 3, 3)
	r := NewRouter(n)
	path, d, ok := r.NodePath(0, 8) // (0,0) to (2,2)
	if !ok || math.Abs(d-400) > 1e-9 {
		t.Fatalf("NodePath dist = %v ok=%v", d, ok)
	}
	if len(path) != 4 {
		t.Fatalf("NodePath len = %d, want 4", len(path))
	}
	// Path must be contiguous and start/end correctly.
	if n.Segment(path[0]).From != 0 || n.Segment(path[3]).To != 8 {
		t.Error("path endpoints wrong")
	}
	for i := 1; i < len(path); i++ {
		if n.Segment(path[i-1]).To != n.Segment(path[i]).From {
			t.Error("path not contiguous")
		}
	}
	if p, d, ok := r.NodePath(4, 4); !ok || d != 0 || p != nil {
		t.Errorf("self NodePath = %v %v %v", p, d, ok)
	}
}

func TestMaxDistBound(t *testing.T) {
	n := buildGrid(t, 10, 1)
	r := NewRouter(n, WithMaxDist(250))
	if _, ok := r.NodeDist(0, 9); ok {
		t.Error("distance beyond bound reported reachable")
	}
	if d, ok := r.NodeDist(0, 2); !ok || d != 200 {
		t.Errorf("in-bound NodeDist = %v ok=%v", d, ok)
	}
}

func TestUnreachable(t *testing.T) {
	// Two disconnected components.
	var b Builder
	a0 := b.AddNode(geo.Pt(0, 0))
	a1 := b.AddNode(geo.Pt(100, 0))
	c0 := b.AddNode(geo.Pt(5000, 5000))
	c1 := b.AddNode(geo.Pt(5100, 5000))
	if _, err := b.AddSegment(a0, a1, Local); err != nil {
		t.Fatal(err)
	}
	if _, err := b.AddSegment(c0, c1, Local); err != nil {
		t.Fatal(err)
	}
	n, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	r := NewRouter(n)
	if _, ok := r.NodeDist(a0, c1); ok {
		t.Error("disconnected nodes reported reachable")
	}
	if _, _, ok := r.NodePath(a0, c1); ok {
		t.Error("disconnected NodePath reported ok")
	}
}

func TestRouteBetweenSameSegment(t *testing.T) {
	n := buildGrid(t, 2, 1)
	fwd := segBetween(t, n, 0, 1)
	r := NewRouter(n)
	route, ok := r.RouteBetween(PointOnRoad{fwd, 0.2}, PointOnRoad{fwd, 0.7})
	if !ok || math.Abs(route.Dist-50) > 1e-9 || len(route.Segs) != 1 {
		t.Errorf("same-segment route = %+v ok=%v", route, ok)
	}
	// Backwards on the same directed segment requires a loop via the
	// reverse segment: 0.2*100 forward to end is wrong — it must go
	// through the network: (1-0.7)*100 + path(To=1 start... ) — in this
	// tiny net: 30 m to node 1, reverse segment 100 m to node 0, then
	// 20 m — total 150.
	route, ok = r.RouteBetween(PointOnRoad{fwd, 0.7}, PointOnRoad{fwd, 0.2})
	if !ok || math.Abs(route.Dist-150) > 1e-9 {
		t.Errorf("backward same-segment route = %+v ok=%v", route, ok)
	}
}

func TestRouteBetweenAdjacent(t *testing.T) {
	n := buildGrid(t, 3, 1)
	s01 := segBetween(t, n, 0, 1)
	s12 := segBetween(t, n, 1, 2)
	r := NewRouter(n)
	route, ok := r.RouteBetween(PointOnRoad{s01, 0.5}, PointOnRoad{s12, 0.5})
	if !ok || math.Abs(route.Dist-100) > 1e-9 {
		t.Fatalf("adjacent route = %+v ok=%v", route, ok)
	}
	if len(route.Segs) != 2 || route.Segs[0] != s01 || route.Segs[1] != s12 {
		t.Errorf("adjacent segs = %v", route.Segs)
	}
}

func TestRouteBetweenFar(t *testing.T) {
	n := buildGrid(t, 5, 5)
	r := NewRouter(n)
	sA := segBetween(t, n, 0, 1)                   // bottom-left horizontal
	sB := segBetween(t, n, NodeID(23), NodeID(24)) // top-right horizontal
	route, ok := r.RouteBetween(PointOnRoad{sA, 0.5}, PointOnRoad{sB, 0.5})
	if !ok {
		t.Fatal("far route not found")
	}
	// 50 remaining + dist(node1 -> node23) + 50 into sB.
	wantMid, ok2 := r.NodeDist(1, 23)
	if !ok2 {
		t.Fatal("mid dist not found")
	}
	if math.Abs(route.Dist-(50+wantMid+50)) > 1e-9 {
		t.Errorf("route dist = %v, want %v", route.Dist, 50+wantMid+50)
	}
	// Contiguity.
	for i := 1; i < len(route.Segs); i++ {
		if n.Segment(route.Segs[i-1]).To != n.Segment(route.Segs[i]).From {
			t.Fatal("route segments not contiguous")
		}
	}
}

// Property: NodeDist satisfies the triangle inequality through any
// intermediate node and symmetry holds on a two-way lattice.
func TestNodeDistProperties(t *testing.T) {
	n := buildGrid(t, 6, 6)
	r := NewRouter(n)
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 200; trial++ {
		a := NodeID(rng.Intn(36))
		b := NodeID(rng.Intn(36))
		c := NodeID(rng.Intn(36))
		dab, ok1 := r.NodeDist(a, b)
		dba, ok2 := r.NodeDist(b, a)
		if !ok1 || !ok2 || math.Abs(dab-dba) > 1e-9 {
			t.Fatalf("symmetry broken: %v vs %v", dab, dba)
		}
		dac, _ := r.NodeDist(a, c)
		dcb, _ := r.NodeDist(c, b)
		if dab > dac+dcb+1e-9 {
			t.Fatalf("triangle inequality broken: d(%d,%d)=%v > %v+%v", a, b, dab, dac, dcb)
		}
		// Path length equals reported distance.
		path, d, ok := r.NodePath(a, b)
		if !ok || math.Abs(d-dab) > 1e-9 {
			t.Fatalf("NodePath dist %v != NodeDist %v", d, dab)
		}
		var sum float64
		for _, sid := range path {
			sum += n.Segment(sid).Length
		}
		if math.Abs(sum-dab) > 1e-9 {
			t.Fatalf("path segment sum %v != dist %v", sum, dab)
		}
	}
}

func TestRouterCacheEviction(t *testing.T) {
	n := buildGrid(t, 4, 4)
	r := NewRouter(n, WithCacheSize(2))
	for i := 0; i < 10; i++ {
		src := NodeID(i % 4)
		if _, ok := r.NodeDist(src, NodeID(15)); !ok {
			t.Fatalf("query from %d failed", src)
		}
	}
	r.mu.Lock()
	size := len(r.trees.slots)
	r.mu.Unlock()
	if size > 2 {
		t.Errorf("cache size %d exceeds capacity 2", size)
	}
}

func TestRouterConcurrent(t *testing.T) {
	n := buildGrid(t, 8, 8)
	r := NewRouter(n, WithCacheSize(4))
	done := make(chan bool)
	for g := 0; g < 8; g++ {
		go func(seed int64) {
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 100; i++ {
				a := NodeID(rng.Intn(64))
				b := NodeID(rng.Intn(64))
				r.NodeDist(a, b)
				r.NodePath(a, b)
			}
			done <- true
		}(int64(g))
	}
	for g := 0; g < 8; g++ {
		<-done
	}
}

func TestGeometry(t *testing.T) {
	n := buildGrid(t, 3, 1)
	r := NewRouter(n)
	s01 := segBetween(t, n, 0, 1)
	s12 := segBetween(t, n, 1, 2)
	a := PointOnRoad{s01, 0.5}
	b := PointOnRoad{s12, 0.5}
	route, _ := r.RouteBetween(a, b)
	pl := r.Geometry(route, a, b)
	if math.Abs(pl.Length()-route.Dist) > 1e-9 {
		t.Errorf("geometry length %v != route dist %v", pl.Length(), route.Dist)
	}
	if pl[0].Dist(geo.Pt(50, 0)) > 1e-9 || pl[len(pl)-1].Dist(geo.Pt(150, 0)) > 1e-9 {
		t.Errorf("geometry endpoints %v..%v", pl[0], pl[len(pl)-1])
	}
	// Single-segment geometry.
	route1, _ := r.RouteBetween(PointOnRoad{s01, 0.1}, PointOnRoad{s01, 0.9})
	pl1 := r.Geometry(route1, PointOnRoad{s01, 0.1}, PointOnRoad{s01, 0.9})
	if math.Abs(pl1.Length()-80) > 1e-9 {
		t.Errorf("single-seg geometry length = %v", pl1.Length())
	}
}

func TestTravelTime(t *testing.T) {
	n := buildGrid(t, 3, 1)
	r := NewRouter(n)
	s01 := segBetween(t, n, 0, 1)
	s12 := segBetween(t, n, 1, 2)
	route, _ := r.RouteBetween(PointOnRoad{s01, 0}, PointOnRoad{s12, 1})
	want := 200 / Local.DefaultSpeed()
	if got := r.TravelTime(route); math.Abs(got-want) > 1e-9 {
		t.Errorf("TravelTime = %v, want %v", got, want)
	}
	if got := r.TravelTime(Route{}); got != 0 {
		t.Errorf("empty TravelTime = %v", got)
	}
}

func TestNetworkRoundTrip(t *testing.T) {
	n := buildGrid(t, 3, 2)
	var buf bytes.Buffer
	if err := Write(&buf, n); err != nil {
		t.Fatal(err)
	}
	n2, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n2.NumNodes() != n.NumNodes() || n2.NumSegments() != n.NumSegments() {
		t.Fatalf("round trip size mismatch: %d/%d vs %d/%d",
			n2.NumNodes(), n2.NumSegments(), n.NumNodes(), n.NumSegments())
	}
	for i := 0; i < n.NumSegments(); i++ {
		a, b := n.Segment(SegmentID(i)), n2.Segment(SegmentID(i))
		if a.From != b.From || a.To != b.To || a.Length != b.Length || a.Class != b.Class {
			t.Fatalf("segment %d mismatch after round trip", i)
		}
	}
	if _, err := Read(bytes.NewBufferString("{bad json")); err == nil {
		t.Error("bad JSON did not error")
	}
}

func TestRouterCacheCounters(t *testing.T) {
	obs.Default.Enable()
	t.Cleanup(obs.Default.Disable)
	hits := obs.Default.Counter("router.cache.hits")
	misses := obs.Default.Counter("router.cache.misses")
	evictions := obs.Default.Counter("router.cache.evictions")
	h0, m0, e0 := hits.Value(), misses.Value(), evictions.Value()

	n := buildGrid(t, 6, 6)
	r := NewRouter(n, WithCacheSize(1))
	r.NodeDist(0, 7)  // miss
	r.NodeDist(0, 14) // hit (same source tree)
	r.NodeDist(1, 7)  // miss, evicts source 0
	r.NodeDist(0, 7)  // miss again after eviction

	if got := misses.Value() - m0; got != 3 {
		t.Errorf("misses delta = %d, want 3", got)
	}
	if got := hits.Value() - h0; got != 1 {
		t.Errorf("hits delta = %d, want 1", got)
	}
	if got := evictions.Value() - e0; got < 2 {
		t.Errorf("evictions delta = %d, want >= 2", got)
	}
}

// RouteDist must agree exactly with RouteBetween's Dist on every pair
// shape — same segment, adjacent, multi-hop, unreachable — and stay
// allocation-free once the shortest-path tree is cached.
func TestRouteDistMatchesRouteBetween(t *testing.T) {
	n := buildGrid(t, 5, 5)
	r := NewRouter(n)
	s01 := segBetween(t, n, 0, 1)
	s12 := segBetween(t, n, 1, 2)
	far := segBetween(t, n, NodeID(23), NodeID(24))
	pairs := [][2]PointOnRoad{
		{{s01, 0.2}, {s01, 0.7}}, // forward same segment
		{{s01, 0.7}, {s01, 0.2}}, // backward same segment (loops)
		{{s01, 0.5}, {s12, 0.5}}, // adjacent
		{{s01, 0.5}, {far, 0.5}}, // multi-hop
	}
	for _, p := range pairs {
		route, okR := r.RouteBetween(p[0], p[1])
		dist, okD := r.RouteDist(p[0], p[1])
		if okR != okD || math.Abs(route.Dist-dist) > 1e-12 {
			t.Errorf("RouteDist(%v,%v) = %g/%v, RouteBetween says %g/%v",
				p[0], p[1], dist, okD, route.Dist, okR)
		}
	}
}

func TestRouteDistNoAllocs(t *testing.T) {
	n := buildGrid(t, 5, 5)
	r := NewRouter(n)
	a := PointOnRoad{segBetween(t, n, 0, 1), 0.5}
	b := PointOnRoad{segBetween(t, n, NodeID(23), NodeID(24)), 0.5}
	if _, ok := r.RouteDist(a, b); !ok { // warm the tree cache
		t.Fatal("unreachable")
	}
	if allocs := testing.AllocsPerRun(1000, func() { r.RouteDist(a, b) }); allocs != 0 {
		t.Errorf("warm RouteDist allocates %.1f/op, want 0", allocs)
	}
}
