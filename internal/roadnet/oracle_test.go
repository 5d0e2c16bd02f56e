package roadnet

import (
	"container/heap"
	"math"
	"testing"
)

// The router's single-source trees are dense arrays filled through a
// typed heap. The reference below is the straightforward form of the
// same search — map-backed tree, container/heap queue — kept as the
// oracle that every NodeDist, NodePath and RouteBetween answer must
// match bit for bit.

type oracleTree struct {
	dist   map[NodeID]float64
	tie    map[NodeID]uint64
	parent map[NodeID]SegmentID
}

type oracleQueue []keyItem

func (q oracleQueue) Len() int            { return len(q) }
func (q oracleQueue) Less(i, j int) bool  { return q[i].less(q[j]) }
func (q oracleQueue) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *oracleQueue) Push(x interface{}) { *q = append(*q, x.(keyItem)) }
func (q *oracleQueue) Pop() interface{} {
	old := *q
	it := old[len(old)-1]
	*q = old[:len(old)-1]
	return it
}

// oracleDijkstra runs a bounded single-source search under the
// canonical (distance, tie) key order.
func oracleDijkstra(net *Network, from NodeID, maxDist float64) *oracleTree {
	t := &oracleTree{
		dist:   map[NodeID]float64{from: 0},
		tie:    map[NodeID]uint64{from: 0},
		parent: map[NodeID]SegmentID{},
	}
	settled := make(map[NodeID]bool)
	q := &oracleQueue{{node: from}}
	for q.Len() > 0 {
		cur := heap.Pop(q).(keyItem)
		if settled[cur.node] {
			continue
		}
		settled[cur.node] = true
		if cur.dist > maxDist {
			break
		}
		for _, sid := range net.Out(cur.node) {
			seg := net.Segment(sid)
			nd := cur.dist + seg.Length
			if nd > maxDist {
				continue
			}
			nt := cur.tie + segTie(sid)
			if od, ok := t.dist[seg.To]; !ok || keyLess(nd, nt, od, t.tie[seg.To]) {
				t.dist[seg.To] = nd
				t.tie[seg.To] = nt
				t.parent[seg.To] = sid
				heap.Push(q, keyItem{seg.To, nd, nt})
			}
		}
	}
	// Drop unsettled frontier entries beyond the bound so dist only
	// contains final values.
	for n, d := range t.dist {
		if d > maxDist {
			delete(t.dist, n)
			delete(t.tie, n)
			delete(t.parent, n)
		}
	}
	return t
}

// path returns the oracle's segment sequence from the tree's source to
// node to (which must be reached and differ from the source).
func (t *oracleTree) path(net *Network, from, to NodeID) []SegmentID {
	var rev []SegmentID
	for cur := to; cur != from; cur = net.Segment(rev[len(rev)-1]).From {
		rev = append(rev, t.parent[cur])
	}
	path := make([]SegmentID, len(rev))
	for i, s := range rev {
		path[len(rev)-1-i] = s
	}
	return path
}

func sameSegs(a, b []SegmentID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// CheckRouterAgainstOracle asserts that a flat router bounded by
// maxDist answers NodeDist, NodePath, RouteBetween and RouteDist
// exactly as the map-backed oracle does, from every stride-th source
// node to every target. It returns the number of unreachable pairs
// seen, so callers can confirm a bound really cut the network. Under
// the race detector only every 4·stride-th source is checked.
func CheckRouterAgainstOracle(t *testing.T, net *Network, maxDist float64, stride int) (unreachable int) {
	t.Helper()
	if raceEnabled {
		stride *= 4
	}
	r := NewRouter(net, WithMaxDist(maxDist), WithCacheSize(2))
	for s := 0; s < net.NumNodes(); s += stride {
		from := NodeID(s)
		ot := oracleDijkstra(net, from, maxDist)
		// Route endpoints: the source is entered through the middle of
		// one of its incoming segments, when it has one.
		var in *PointOnRoad
		if ins := net.In(from); len(ins) > 0 {
			in = &PointOnRoad{Seg: ins[0], Frac: 0.5}
		}
		for v := 0; v < net.NumNodes(); v++ {
			to := NodeID(v)
			if to == from {
				continue
			}
			wantD, wantOK := ot.dist[to]
			if !wantOK {
				unreachable++
				wantD = 0
			}
			d, ok := r.NodeDist(from, to)
			if ok != wantOK || math.Float64bits(d) != math.Float64bits(wantD) {
				t.Fatalf("maxDist %g: NodeDist(%d,%d) = %v/%v, oracle %v/%v", maxDist, from, to, d, ok, wantD, wantOK)
			}
			path, pd, pok := r.NodePath(from, to)
			var wantPath []SegmentID
			if wantOK {
				wantPath = ot.path(net, from, to)
			}
			if pok != wantOK || math.Float64bits(pd) != math.Float64bits(wantD) || !sameSegs(path, wantPath) {
				t.Fatalf("maxDist %g: NodePath(%d,%d) = %v %v/%v, oracle %v %v/%v", maxDist, from, to, path, pd, pok, wantPath, wantD, wantOK)
			}
			outs := net.Out(to)
			if in == nil || len(outs) == 0 {
				continue
			}
			a, b := *in, PointOnRoad{Seg: outs[0], Frac: 0.25}
			if a.Seg == b.Seg {
				continue // same-segment routes never reach the tree
			}
			segA, segB := net.Segment(a.Seg), net.Segment(b.Seg)
			head, tail := (1-a.Frac)*segA.Length, b.Frac*segB.Length
			route, rok := r.RouteBetween(a, b)
			rd, rdok := r.RouteDist(a, b)
			if rok != wantOK || rdok != wantOK {
				t.Fatalf("maxDist %g: RouteBetween/RouteDist(%v,%v) ok %v/%v, oracle %v", maxDist, a, b, rok, rdok, wantOK)
			}
			if !wantOK {
				continue
			}
			want := Route{Dist: head + wantD + tail, Segs: append(append([]SegmentID{a.Seg}, wantPath...), b.Seg)}
			if math.Float64bits(route.Dist) != math.Float64bits(want.Dist) || !sameSegs(route.Segs, want.Segs) ||
				math.Float64bits(rd) != math.Float64bits(want.Dist) {
				t.Fatalf("maxDist %g: RouteBetween(%v,%v) = %+v (RouteDist %v), oracle %+v", maxDist, a, b, route, rd, want)
			}
		}
	}
	return unreachable
}

func TestRouterMatchesOracleLattice(t *testing.T) {
	n := buildGrid(t, 7, 6)
	for _, maxDist := range []float64{30000, 450, 250} {
		unreachable := CheckRouterAgainstOracle(t, n, maxDist, 1)
		if maxDist == 250 && unreachable == 0 {
			t.Errorf("maxDist %g left every pair reachable; the bound is not exercised", maxDist)
		}
	}
}

func TestRouterMatchesOracleJittered(t *testing.T) {
	// Disconnected pockets make some pairs unreachable at any bound.
	n := buildJittered(t, 12, 12, 0.25, 7)
	for _, maxDist := range []float64{30000, 600, 180} {
		CheckRouterAgainstOracle(t, n, maxDist, 1)
	}
}

// Allocation pins for the flat router: a cold tree is the tree itself
// (struct, dist and parent arrays) and nothing else; warm distance
// queries allocate nothing; a warm route allocates only its segment
// list.
func TestRouterAllocations(t *testing.T) {
	n := buildGrid(t, 12, 12)
	far := segBetween(t, n, NodeID(130), NodeID(131))
	a := PointOnRoad{segBetween(t, n, 0, 1), 0.5}
	b := PointOnRoad{far, 0.5}

	cold := NewRouter(n, WithCacheSize(0))
	if allocs := testing.AllocsPerRun(200, func() { cold.NodeDist(5, 140) }); allocs > 3 && !raceEnabled {
		t.Errorf("cold tree build allocates %.1f/op, want <= 3", allocs)
	}

	warm := NewRouter(n)
	if _, ok := warm.RouteBetween(a, b); !ok {
		t.Fatal("unreachable")
	}
	warm.NodeDist(5, 140)
	for _, c := range []struct {
		name string
		want float64
		f    func()
	}{
		{"NodeDist", 0, func() { warm.NodeDist(5, 140) }},
		{"RouteDist", 0, func() { warm.RouteDist(a, b) }},
		{"NodePath", 1, func() { warm.NodePath(5, 140) }},
		{"RouteBetween", 1, func() { warm.RouteBetween(a, b) }},
	} {
		if allocs := testing.AllocsPerRun(1000, c.f); allocs != c.want {
			t.Errorf("warm %s allocates %.1f/op, want %v", c.name, allocs, c.want)
		}
	}
}

// Every operation of the typed heap must pop in the same strict
// (dist, tie, node) order container/heap gives the oracle's queue.
func TestKeyHeapOrder(t *testing.T) {
	var h keyHeap
	q := &oracleQueue{}
	x := uint64(1)
	next := func() uint64 { x = x*6364136223846793005 + 1442695040888963407; return x >> 33 }
	for step := 0; step < 5000; step++ {
		if next()%3 != 0 || len(h) == 0 {
			it := keyItem{node: NodeID(next() % 50), dist: float64(next() % 20), tie: next() % 7}
			h.push(it)
			heap.Push(q, it)
			continue
		}
		got, want := h.pop(), heap.Pop(q).(keyItem)
		if got != want {
			t.Fatalf("step %d: pop %+v, container/heap pops %+v", step, got, want)
		}
	}
}
