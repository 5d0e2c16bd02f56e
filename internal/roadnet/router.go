package roadnet

import (
	"math"
	"sync"
	"time"

	"repro/internal/geo"
	"repro/internal/obs"
)

// Router telemetry (internal/obs). Handles are interned once; every
// update is a no-op single atomic load until the Default registry is
// enabled.
var (
	obsCacheHits      = obs.Default.Counter("router.cache.hits")
	obsCacheMisses    = obs.Default.Counter("router.cache.misses")
	obsCacheEvictions = obs.Default.Counter("router.cache.evictions")
	obsCacheSize      = obs.Default.Gauge("router.cache.size")
	obsRoutes         = obs.Default.Counter("router.routes")
	obsRouteMisses    = obs.Default.Counter("router.routes.unreachable")
	// Dijkstra runs are microsecond-scale; the fine buckets keep its
	// quantiles meaningful (the coarse LatencyBuckets start at 100µs).
	obsDijkstraS = obs.Default.Histogram("router.dijkstra.seconds", obs.FineLatencyBuckets)
)

func init() {
	// Derived at scrape time from the hit/miss counters; exported as
	// lhmm_router_cache_hit_rate.
	obs.Default.Derived("router.cache.hit_rate", func() float64 {
		h, m := float64(obsCacheHits.Value()), float64(obsCacheMisses.Value())
		if h+m == 0 {
			return 0
		}
		return h / (h + m)
	})
}

// PointOnRoad is a position expressed as a fraction along a segment —
// the form candidate matches take during path-finding.
type PointOnRoad struct {
	Seg  SegmentID
	Frac float64 // 0 at the segment start, 1 at the end
}

// Route is a path through the network between two on-road points.
type Route struct {
	Dist float64     // route length in meters
	Segs []SegmentID // traversed segments, in order, inclusive of both ends
}

// Router answers shortest-path queries over a Network. Searches are
// bounded by MaxDist. Without a hierarchy, results of single-source
// Dijkstra runs are memoized in an approximate-LRU (CLOCK) cache,
// mirroring the precomputation table the paper uses to avoid repeated
// shortest-path searches (§V-A2). With a hierarchy attached
// (WithHierarchy), node queries run as Contraction-Hierarchies label
// intersections instead — same results, with per-node CH labels
// (thousands of times smaller than flat trees) cached under the same
// CLOCK policy. Router is safe for concurrent use.
type Router struct {
	net     *Network
	maxDist float64
	hier    *Hierarchy // nil = flat per-source Dijkstra

	capacity int // entries per cache

	// Caches, all guarded by mu: flat single-source trees, or CH labels
	// in hierarchy mode. Only one kind is ever filled per router.
	mu        sync.Mutex
	trees     clockCache[*ssspResult]
	fwdLabels clockCache[*chLabel]
	bwdLabels clockCache[*chLabel]
}

// ssspResult holds a bounded single-source shortest-path tree as two
// dense arrays indexed by NodeID — 12 bytes per network node. Parents
// always describe the unique minimum-(dist, tie) path from the source
// (see segTie). Unreached nodes, and the source itself, have parent -1;
// unreached nodes have dist +Inf.
type ssspResult struct {
	dist   []float64
	parent []int32 // SegmentID of the segment used to reach the node
}

// hops returns the number of segments on the tree path from the source
// to node to, or -1 when to is unreached. to must not be the source.
func (t *ssspResult) hops(net *Network, to NodeID) int {
	n := 0
	for p := t.parent[to]; p >= 0; p = t.parent[net.segments[p].From] {
		n++
	}
	if n == 0 {
		return -1
	}
	return n
}

// fill writes the tree path ending at node to into dst, whose length
// must be hops(to).
func (t *ssspResult) fill(net *Network, to NodeID, dst []SegmentID) {
	for i := len(dst) - 1; i >= 0; i-- {
		sid := SegmentID(t.parent[to])
		dst[i] = sid
		to = net.segments[sid].From
	}
}

// RouterOption configures a Router.
type RouterOption func(*Router)

// WithMaxDist bounds every search to the given route length in meters.
// Queries beyond the bound report unreachable. Default 30 km.
func WithMaxDist(d float64) RouterOption {
	return func(r *Router) { r.maxDist = d }
}

// WithCacheSize sets how many single-source trees are memoized.
// Default 4096.
func WithCacheSize(n int) RouterOption {
	return func(r *Router) { r.capacity = n }
}

// WithHierarchy attaches a prebuilt Contraction Hierarchy; node queries
// then run as bidirectional CH searches instead of cached per-source
// Dijkstra trees. The hierarchy must have been built over the same
// network the router serves.
func WithHierarchy(h *Hierarchy) RouterOption {
	return func(r *Router) {
		r.hier = h
		if h != nil {
			obsCHShortcuts.Set(int64(h.NumShortcuts()))
		}
	}
}

// NewRouter creates a Router over the network.
func NewRouter(net *Network, opts ...RouterOption) *Router {
	r := &Router{
		net:      net,
		maxDist:  30000,
		capacity: 4096,
	}
	for _, o := range opts {
		o(r)
	}
	r.trees.capacity = r.capacity
	r.fwdLabels.capacity = r.capacity
	r.bwdLabels.capacity = r.capacity
	return r
}

// MaxDist returns the search bound in meters.
func (r *Router) MaxDist() float64 { return r.maxDist }

// Hierarchy returns the attached Contraction Hierarchy, or nil when the
// router runs flat Dijkstra.
func (r *Router) Hierarchy() *Hierarchy { return r.hier }

// NodeDist returns the shortest route length between two nodes, or
// ok=false if unreachable within the search bound.
func (r *Router) NodeDist(from, to NodeID) (float64, bool) {
	if from == to {
		return 0, true
	}
	if r.hier != nil {
		lf := r.label(&r.fwdLabels, from, true)
		lb := r.label(&r.bwdLabels, to, false)
		return r.hier.distLabels(lf, lb, r.maxDist)
	}
	t := r.tree(from)
	if t.parent[to] < 0 {
		return 0, false
	}
	return t.dist[to], true
}

// NodePath returns the segment sequence and length of the shortest
// route between two nodes, or ok=false if unreachable within the bound.
// An empty path with ok=true means from == to.
func (r *Router) NodePath(from, to NodeID) ([]SegmentID, float64, bool) {
	if from == to {
		return nil, 0, true
	}
	if r.hier != nil {
		lf := r.label(&r.fwdLabels, from, true)
		lb := r.label(&r.bwdLabels, to, false)
		return r.hier.pathLabels(lf, lb, r.maxDist)
	}
	t := r.tree(from)
	n := t.hops(r.net, to)
	if n < 0 {
		return nil, 0, false
	}
	path := make([]SegmentID, n)
	t.fill(r.net, to, path)
	return path, t.dist[to], true
}

// RouteBetween returns the route from point a to point b, both given as
// positions on road segments. Movement follows segment direction: the
// route leaves a through the rest of its segment and enters b through
// the start of b's segment, except when both points lie on the same
// segment with b ahead of a. ok=false means b is unreachable within the
// search bound.
func (r *Router) RouteBetween(a, b PointOnRoad) (Route, bool) {
	obsRoutes.Inc()
	segA, segB := r.net.Segment(a.Seg), r.net.Segment(b.Seg)
	if a.Seg == b.Seg && b.Frac >= a.Frac {
		return Route{
			Dist: (b.Frac - a.Frac) * segA.Length,
			Segs: []SegmentID{a.Seg},
		}, true
	}
	head := (1 - a.Frac) * segA.Length // remaining length of a's segment
	tail := b.Frac * segB.Length       // consumed length of b's segment
	if segA.To == segB.From {
		return Route{
			Dist: head + tail,
			Segs: []SegmentID{a.Seg, b.Seg},
		}, true
	}
	var segs []SegmentID
	var d float64
	if r.hier == nil {
		// Fill the route straight from the tree: one allocation.
		t := r.tree(segA.To)
		n := t.hops(r.net, segB.From)
		if n < 0 {
			obsRouteMisses.Inc()
			return Route{}, false
		}
		segs = make([]SegmentID, n+2)
		t.fill(r.net, segB.From, segs[1:n+1])
		d = t.dist[segB.From]
	} else {
		mid, md, ok := r.NodePath(segA.To, segB.From)
		if !ok {
			obsRouteMisses.Inc()
			return Route{}, false
		}
		segs = make([]SegmentID, len(mid)+2)
		copy(segs[1:], mid)
		d = md
	}
	segs[0], segs[len(segs)-1] = a.Seg, b.Seg
	return Route{Dist: head + d + tail, Segs: segs}, true
}

// RouteDist returns only the length of the route from a to b — the
// same distance RouteBetween reports, without materializing the
// segment list. Transition models that score on distance alone use it
// to keep per-step scoring allocation-free on the warm cache path.
func (r *Router) RouteDist(a, b PointOnRoad) (float64, bool) {
	obsRoutes.Inc()
	segA, segB := r.net.Segment(a.Seg), r.net.Segment(b.Seg)
	if a.Seg == b.Seg && b.Frac >= a.Frac {
		return (b.Frac - a.Frac) * segA.Length, true
	}
	head := (1 - a.Frac) * segA.Length
	tail := b.Frac * segB.Length
	if segA.To == segB.From {
		return head + tail, true
	}
	d, ok := r.NodeDist(segA.To, segB.From)
	if !ok {
		obsRouteMisses.Inc()
		return 0, false
	}
	return head + d + tail, true
}

// Geometry returns the polyline of a route's traversed segments,
// trimmed to the start and end positions.
func (r *Router) Geometry(route Route, a, b PointOnRoad) geo.Polyline {
	if len(route.Segs) == 0 {
		return nil
	}
	var pl geo.Polyline
	if len(route.Segs) == 1 {
		seg := r.net.Segment(route.Segs[0])
		start, end := a.Frac*seg.Length, b.Frac*seg.Length
		return clipShape(seg.Shape, start, end)
	}
	first := r.net.Segment(route.Segs[0])
	pl = append(pl, clipShape(first.Shape, a.Frac*first.Length, first.Length)...)
	for _, sid := range route.Segs[1 : len(route.Segs)-1] {
		shape := r.net.Segment(sid).Shape
		pl = append(pl, shape[1:]...)
	}
	last := r.net.Segment(route.Segs[len(route.Segs)-1])
	clipped := clipShape(last.Shape, 0, b.Frac*last.Length)
	if len(clipped) > 0 {
		pl = append(pl, clipped[1:]...)
	}
	return pl
}

// clipShape returns the part of the polyline between distances d0 and
// d1 from the start (d0 <= d1 assumed after swap).
func clipShape(shape geo.Polyline, d0, d1 float64) geo.Polyline {
	if d1 < d0 {
		d0, d1 = d1, d0
	}
	out := geo.Polyline{shape.At(d0)}
	var walked float64
	for i := 1; i < len(shape); i++ {
		seg := shape[i-1].Dist(shape[i])
		if walked+seg > d0 && walked+seg < d1 {
			out = append(out, shape[i])
		}
		walked += seg
	}
	out = append(out, shape.At(d1))
	return out
}

// tree returns the memoized bounded shortest-path tree rooted at from.
func (r *Router) tree(from NodeID) *ssspResult {
	r.mu.Lock()
	if t, ok := r.trees.get(from); ok {
		r.mu.Unlock()
		obsCacheHits.Inc()
		return t
	}
	r.mu.Unlock()
	obsCacheMisses.Inc()

	var start time.Time
	timed := obs.Default.Enabled()
	if timed {
		start = time.Now()
	}
	t := r.dijkstra(from)
	if timed {
		obsDijkstraS.ObserveSince(start)
	}

	r.mu.Lock()
	defer r.mu.Unlock()
	if t2, ok := r.trees.get(from); ok {
		return t2 // another goroutine computed it concurrently; keep theirs
	}
	if r.trees.put(from, t, r.net.NumNodes()) {
		obsCacheEvictions.Inc()
	}
	obsCacheSize.Set(int64(len(r.trees.slots)))
	return t
}

// clockCache memoizes one value per node under an approximate-LRU
// (CLOCK) policy. The reference bit is set on every hit and gives the
// entry a second chance during the eviction sweep, so hot nodes survive
// scans of cold ones — the property an exact LRU has without its cost
// of mutating a shared recency list on every hit. Not self-locking:
// callers hold Router.mu.
type clockCache[V any] struct {
	idx      []int32 // node -> slot index + 1, 0 = absent; allocated on first put
	slots    []clockSlot[V]
	hand     int // CLOCK sweep position
	capacity int
}

type clockSlot[V any] struct {
	node NodeID
	val  V
	ref  bool
}

func (c *clockCache[V]) get(n NodeID) (V, bool) {
	if c.idx != nil {
		if i := c.idx[n]; i > 0 {
			c.slots[i-1].ref = true
			return c.slots[i-1].val, true
		}
	}
	var zero V
	return zero, false
}

// put caches v for node n, which must be absent, in a network of
// numNodes nodes. It reports whether an older entry was evicted.
func (c *clockCache[V]) put(n NodeID, v V, numNodes int) (evicted bool) {
	if c.capacity <= 0 {
		return false
	}
	if c.idx == nil {
		c.idx = make([]int32, numNodes)
	}
	if len(c.slots) < c.capacity {
		c.slots = append(c.slots, clockSlot[V]{node: n, val: v})
		c.idx[n] = int32(len(c.slots))
		return false
	}
	// CLOCK sweep: pass over referenced slots clearing their bit, evict
	// the first unreferenced one. New entries start with the bit clear,
	// so a scan of one-shot nodes recycles its own slots before it can
	// push out a recently re-used entry.
	for c.slots[c.hand].ref {
		c.slots[c.hand].ref = false
		c.hand = (c.hand + 1) % len(c.slots)
	}
	victim := c.hand
	c.idx[c.slots[victim].node] = 0
	c.slots[victim] = clockSlot[V]{node: n, val: v}
	c.idx[n] = int32(victim + 1)
	c.hand = (victim + 1) % len(c.slots)
	return true
}

// label returns the memoized CH label rooted at node, building it
// outside the lock on a miss (concurrent builders race benignly; the
// first insert wins and labels are interchangeable — the build is
// deterministic).
func (r *Router) label(c *clockCache[*chLabel], node NodeID, forward bool) *chLabel {
	r.mu.Lock()
	if l, ok := c.get(node); ok {
		r.mu.Unlock()
		return l
	}
	r.mu.Unlock()
	l := r.hier.buildLabel(node, forward, r.maxDist)
	r.mu.Lock()
	defer r.mu.Unlock()
	if l2, ok := c.get(node); ok {
		return l2
	}
	c.put(node, l, r.net.NumNodes())
	return l
}

// pqItem is a priority-queue entry for plain weighted Dijkstra
// (ShortestPathWeighted).
type pqItem struct {
	node NodeID
	dist float64
}

type pq []pqItem

func (q pq) Len() int            { return len(q) }
func (q pq) Less(i, j int) bool  { return q[i].dist < q[j].dist }
func (q pq) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *pq) Push(x interface{}) { *q = append(*q, x.(pqItem)) }
func (q *pq) Pop() interface{} {
	old := *q
	n := len(old)
	it := old[n-1]
	*q = old[:n-1]
	return it
}

// segTie returns the canonical tie-break value of a segment: a fixed
// pseudo-random 44-bit integer derived from the id (splitmix64 mix).
// Routing orders paths by the lexicographic key (distance, sum of
// segment tie values), which makes the minimum-key path unique almost
// surely even on grid networks where many distinct paths share the
// exact same length. That uniqueness is what lets the Contraction-
// Hierarchies query reproduce the flat Dijkstra path byte for byte.
// 44-bit values keep sums overflow-free to 2^20 hops.
func segTie(id SegmentID) uint64 {
	x := uint64(id) + 1
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x >> 20
}

// keyLess reports whether key (d1, t1) precedes (d2, t2) in the
// canonical lexicographic path order.
func keyLess(d1 float64, t1 uint64, d2 float64, t2 uint64) bool {
	if d1 != d2 {
		return d1 < d2
	}
	return t1 < t2
}

// keyItem is a search-queue entry carrying the canonical (dist, tie)
// key; the node id is the final comparison, so the order is strict and
// the pop sequence — and with it every tree, label and path — does not
// depend on the heap's internal layout.
type keyItem struct {
	node NodeID
	dist float64
	tie  uint64
}

func (a keyItem) less(b keyItem) bool {
	if a.dist != b.dist {
		return a.dist < b.dist
	}
	if a.tie != b.tie {
		return a.tie < b.tie
	}
	return a.node < b.node
}

// keyHeap is a binary min-heap of keyItems: the one queue of the flat
// tree builds, CH witness searches and CH label builds. Typed, so
// pushes and pops neither box items nor call through an interface.
type keyHeap []keyItem

func (h *keyHeap) push(it keyItem) {
	q := append(*h, it)
	i := len(q) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !it.less(q[p]) {
			break
		}
		q[i] = q[p]
		i = p
	}
	q[i] = it
	*h = q
}

func (h *keyHeap) pop() keyItem {
	q := *h
	top := q[0]
	n := len(q) - 1
	last := q[n]
	q = q[:n]
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && q[c+1].less(q[c]) {
			c++
		}
		if !q[c].less(last) {
			break
		}
		q[i] = q[c]
		i = c
	}
	if n > 0 {
		q[i] = last
	}
	*h = q
	return top
}

// treeScratch is the per-search state of a tree build that no query
// reads once the tree is done: tie keys, reached/settled marks and the
// queue. It is pooled, so a cold build allocates only the tree.
type treeScratch struct {
	tie  []uint64
	mark []uint32 // == gen: reached this search; == gen+1: settled
	gen  uint32
	q    keyHeap
}

var treeScratchPool sync.Pool // *treeScratch

// getTreeScratch returns scratch for a network of n nodes with fresh
// marks: every stored mark is below the returned gen.
func getTreeScratch(n int) *treeScratch {
	s, _ := treeScratchPool.Get().(*treeScratch)
	if s == nil || len(s.mark) < n {
		s = &treeScratch{tie: make([]uint64, n), mark: make([]uint32, n)}
	}
	if s.gen >= math.MaxUint32-3 {
		clear(s.mark)
		s.gen = 0
	}
	s.gen += 2
	s.q = s.q[:0]
	return s
}

// dijkstra runs a bounded single-source shortest-path search under the
// canonical (distance, tie) key order.
func (r *Router) dijkstra(from NodeID) *ssspResult {
	n := r.net.NumNodes()
	t := &ssspResult{dist: make([]float64, n), parent: make([]int32, n)}
	for i := range t.dist {
		t.dist[i] = math.Inf(1)
		t.parent[i] = -1
	}
	s := getTreeScratch(n)
	defer treeScratchPool.Put(s)
	reached, settled := s.gen, s.gen+1
	t.dist[from], s.tie[from], s.mark[from] = 0, 0, reached
	s.q.push(keyItem{node: from})
	for len(s.q) > 0 {
		cur := s.q.pop()
		if s.mark[cur.node] == settled {
			continue
		}
		s.mark[cur.node] = settled
		if cur.dist > r.maxDist {
			break
		}
		for _, sid := range r.net.Out(cur.node) {
			seg := &r.net.segments[sid]
			nd := cur.dist + seg.Length
			if nd > r.maxDist {
				continue
			}
			nt := cur.tie + segTie(sid)
			v := seg.To
			if s.mark[v] < reached || keyLess(nd, nt, t.dist[v], s.tie[v]) {
				t.dist[v], s.tie[v], t.parent[v] = nd, nt, int32(sid)
				if s.mark[v] < reached {
					s.mark[v] = reached
				}
				s.q.push(keyItem{v, nd, nt})
			}
		}
	}
	return t
}

// TravelTime returns the free-flow travel time of a route in seconds,
// using each segment's speed. Clipped end segments are prorated by the
// route's total distance.
func (r *Router) TravelTime(route Route) float64 {
	if len(route.Segs) == 0 {
		return 0
	}
	var fullLen, fullTime float64
	for _, sid := range route.Segs {
		seg := r.net.Segment(sid)
		fullLen += seg.Length
		if seg.Speed > 0 {
			fullTime += seg.Length / seg.Speed
		}
	}
	if fullLen == 0 {
		return 0
	}
	// Prorate: the route distance may be shorter than the sum of full
	// segment lengths because the first/last segments are clipped.
	return fullTime * math.Min(1, route.Dist/fullLen)
}
