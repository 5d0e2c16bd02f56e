// Package spatial provides a uniform grid spatial index over items with
// rectangular extents. It supports the queries the map-matching pipeline
// needs: radius search, k-nearest-neighbour search, and rectangle
// queries, each against either item extents or item reference points.
//
// A uniform grid is the right structure here: road segments and cell
// towers are roughly uniformly dense at city scale, insertions happen
// once at load time, and queries are tight (a few hundred meters to a
// few kilometers), so the grid beats tree structures in both simplicity
// and constant factors.
package spatial

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/geo"
)

// Item is anything indexable by the grid: it exposes a bounding
// rectangle (for coarse placement) and an exact distance to a query
// point (for refinement).
type Item interface {
	// Bounds returns the item's axis-aligned bounding rectangle.
	Bounds() geo.Rect
	// DistTo returns the exact distance from p to the item in meters.
	DistTo(p geo.Point) float64
}

// Grid is a uniform-cell spatial index. The zero value is not usable;
// construct with NewGrid. Grid is safe for concurrent readers once
// built; Insert must not race with queries.
type Grid struct {
	cellSize float64
	origin   geo.Point
	cols     int
	rows     int
	cells    [][]int // cell -> item ids
	items    []Item
}

// AutoCellSize picks a cell size for indexing itemCount items spread
// over bounds so that an average cell holds about targetPerCell items
// (<= 0 selects the default of 4). Sizing by density instead of by a
// fixed bounds fraction keeps per-cell occupancy — and therefore
// per-query refinement cost — flat as networks grow from test lattices
// to metro-scale extents. The result is clamped to [minCell, the larger
// bounds dimension] so tiny test fixtures and degenerate inputs stay
// well-formed; minCell <= 0 selects the default of 50 m.
func AutoCellSize(bounds geo.Rect, itemCount, targetPerCell int, minCell float64) float64 {
	if targetPerCell <= 0 {
		targetPerCell = 4
	}
	if minCell <= 0 {
		minCell = 50
	}
	w, h := bounds.Width(), bounds.Height()
	maxDim := math.Max(w, h)
	if maxDim <= 0 || itemCount <= 0 {
		return minCell
	}
	// Solve cells = area/cell² ≈ itemCount/targetPerCell. Degenerate
	// (zero-area) bounds fall back to the linear analogue.
	area := w * h
	var cell float64
	if area > 0 {
		cell = math.Sqrt(area * float64(targetPerCell) / float64(itemCount))
	} else {
		cell = maxDim * float64(targetPerCell) / float64(itemCount)
	}
	// At most itemCount+16 cells along the longer side: without this a
	// sliver-shaped extent (aspect ratio beyond ~4·itemCount, never a
	// real city) would get a cell count unbounded by the item count.
	cell = math.Max(cell, maxDim/float64(itemCount+16))
	return math.Min(math.Max(cell, minCell), maxDim)
}

// NewGrid creates a grid covering the rectangle bounds with square cells
// of the given size in meters. The bounds are buffered by one cell so
// items on the boundary index cleanly. cellSize must be positive and the
// bounds non-degenerate; NewGrid panics otherwise since both are
// programmer errors.
func NewGrid(bounds geo.Rect, cellSize float64) *Grid {
	if cellSize <= 0 {
		panic(fmt.Sprintf("spatial: non-positive cell size %v", cellSize))
	}
	if bounds.Width() < 0 || bounds.Height() < 0 {
		panic(fmt.Sprintf("spatial: inverted bounds %v", bounds))
	}
	b := bounds.Buffer(cellSize)
	cols := int(math.Ceil(b.Width()/cellSize)) + 1
	rows := int(math.Ceil(b.Height()/cellSize)) + 1
	return &Grid{
		cellSize: cellSize,
		origin:   b.Min,
		cols:     cols,
		rows:     rows,
		cells:    make([][]int, cols*rows),
	}
}

// Len returns the number of indexed items.
func (g *Grid) Len() int { return len(g.items) }

// Item returns the item with the given id (the value returned by
// Insert). It panics on an out-of-range id.
func (g *Grid) Item(id int) Item { return g.items[id] }

// Insert adds an item to the index and returns its id. Items whose
// bounds fall partly outside the grid are clamped to the boundary cells,
// so they remain findable (at a small refinement cost).
func (g *Grid) Insert(it Item) int {
	id := len(g.items)
	g.items = append(g.items, it)
	c0, r0 := g.cellAt(it.Bounds().Min)
	c1, r1 := g.cellAt(it.Bounds().Max)
	for r := r0; r <= r1; r++ {
		for c := c0; c <= c1; c++ {
			idx := r*g.cols + c
			g.cells[idx] = append(g.cells[idx], id)
		}
	}
	return id
}

// cellAt maps a point to (col, row), clamped into the grid.
func (g *Grid) cellAt(p geo.Point) (int, int) {
	c := int((p.X - g.origin.X) / g.cellSize)
	r := int((p.Y - g.origin.Y) / g.cellSize)
	return clamp(c, 0, g.cols-1), clamp(r, 0, g.rows-1)
}

func clamp(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// Within returns the ids of all items whose exact distance to p is at
// most radius, in ascending distance order.
func (g *Grid) Within(p geo.Point, radius float64) []int {
	type hit struct {
		id int
		d  float64
	}
	var hits []hit
	seen := make(map[int]bool)
	g.forCandidates(geo.RectAround(p, radius), func(id int) {
		if seen[id] {
			return
		}
		seen[id] = true
		if d := g.items[id].DistTo(p); d <= radius {
			hits = append(hits, hit{id, d})
		}
	})
	sort.Slice(hits, func(i, j int) bool {
		if hits[i].d != hits[j].d {
			return hits[i].d < hits[j].d
		}
		return hits[i].id < hits[j].id
	})
	ids := make([]int, len(hits))
	for i, h := range hits {
		ids[i] = h.id
	}
	return ids
}

// Nearest returns the ids of the k items nearest to p, in ascending
// distance order. It returns fewer than k ids only when the index holds
// fewer than k items. The search expands ring by ring, so typical-case
// cost is proportional to local density, not index size.
func (g *Grid) Nearest(p geo.Point, k int) []int {
	if k <= 0 || len(g.items) == 0 {
		return nil
	}
	if k > len(g.items) {
		k = len(g.items)
	}
	type hit struct {
		id int
		d  float64
	}
	var hits []hit
	seen := make(map[int]bool)
	// Expand the search radius until we have k hits whose distances are
	// all certain (i.e. within the already-scanned radius).
	radius := g.cellSize
	maxRadius := math.Hypot(float64(g.cols), float64(g.rows)) * g.cellSize
	for {
		g.forCandidates(geo.RectAround(p, radius), func(id int) {
			if seen[id] {
				return
			}
			seen[id] = true
			hits = append(hits, hit{id, g.items[id].DistTo(p)})
		})
		sort.Slice(hits, func(i, j int) bool {
			if hits[i].d != hits[j].d {
				return hits[i].d < hits[j].d
			}
			return hits[i].id < hits[j].id
		})
		// A hit is certain if its distance <= radius: anything outside
		// the scanned square is farther than radius away.
		if len(hits) >= k && hits[k-1].d <= radius {
			break
		}
		if radius >= maxRadius {
			break // scanned everything
		}
		radius *= 2
	}
	if k > len(hits) {
		k = len(hits)
	}
	ids := make([]int, k)
	for i := 0; i < k; i++ {
		ids[i] = hits[i].id
	}
	return ids
}

// InRect returns the ids of all items whose bounds intersect r, in
// ascending id order.
func (g *Grid) InRect(r geo.Rect) []int {
	seen := make(map[int]bool)
	var ids []int
	g.forCandidates(r, func(id int) {
		if seen[id] {
			return
		}
		seen[id] = true
		if g.items[id].Bounds().Intersects(r) {
			ids = append(ids, id)
		}
	})
	sort.Ints(ids)
	return ids
}

// forCandidates calls fn for every item id stored in a cell overlapping
// r. Ids may repeat across cells; callers deduplicate.
func (g *Grid) forCandidates(r geo.Rect, fn func(id int)) {
	c0, r0 := g.cellAt(r.Min)
	c1, r1 := g.cellAt(r.Max)
	for row := r0; row <= r1; row++ {
		for col := c0; col <= c1; col++ {
			for _, id := range g.cells[row*g.cols+col] {
				fn(id)
			}
		}
	}
}

// PointItem adapts a bare point (e.g. a cell tower location) to the
// Item interface.
type PointItem struct {
	P geo.Point
}

// Bounds returns the degenerate rectangle at the point.
func (pi PointItem) Bounds() geo.Rect { return geo.Rect{Min: pi.P, Max: pi.P} }

// DistTo returns the Euclidean distance from p to the point.
func (pi PointItem) DistTo(p geo.Point) float64 { return pi.P.Dist(p) }

// SegmentItem adapts a line segment (e.g. a road segment) to the Item
// interface.
type SegmentItem struct {
	S geo.Segment
}

// Bounds returns the segment's bounding rectangle.
func (si SegmentItem) Bounds() geo.Rect {
	r := geo.Rect{Min: si.S.A, Max: si.S.A}
	return r.Extend(si.S.B)
}

// DistTo returns the distance from p to the nearest point on the segment.
func (si SegmentItem) DistTo(p geo.Point) float64 { return si.S.Dist(p) }
