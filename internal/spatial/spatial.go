// Package spatial provides the uniform-grid wall index and the shard
// partitioning grid. Manhattan People move evaluation queries "the walls
// closest to the client's avatar" (Section V-A2) on every move a client
// evaluates. A SegmentIndex query tests only the walls listed in the grid
// cells its search box covers, each wall once, and allocates nothing
// (Within only to grow a dst that lacks room). Avatars within walk-able
// range are found by a scan of the client's own view
// (manhattan.World.NearbyAvatars), since every client's view differs.
package spatial

import (
	"math"

	"seve/internal/geom"
)

type cellKey struct{ x, y int32 }

// SegmentIndex is an immutable uniform grid over line segments. Build it
// once from the generated walls; lookups never mutate it, so a single
// index is safely shared by every simulated node.
type SegmentIndex struct {
	cell  float64
	segs  []geom.Segment
	cells map[cellKey][]int32
	// first[i] is the lowest cell of segment i's bounding box. A query
	// tests a segment listed in several of its cells only in the first
	// of them inside the query box, so no per-query seen-set is needed.
	first []cellKey
	// kmin, kmax bound every listed cell; query boxes are clamped to
	// them, so a huge radius walks the occupied grid, not 2^32 cells.
	kmin, kmax cellKey
}

// NewSegmentIndex indexes segs with the given cell size. Cell size should
// be on the order of the query radius; Manhattan People uses the avatar
// visibility (30 units, Table I).
func NewSegmentIndex(segs []geom.Segment, cellSize float64) *SegmentIndex {
	if cellSize <= 0 {
		cellSize = 1
	}
	idx := &SegmentIndex{
		cell:  cellSize,
		segs:  segs,
		cells: make(map[cellKey][]int32),
		first: make([]cellKey, len(segs)),
	}
	for i, s := range segs {
		k0, k1 := idx.box(s)
		idx.first[i] = k0
		if i == 0 {
			idx.kmin, idx.kmax = k0, k1
		}
		idx.kmin = cellKey{min(idx.kmin.x, k0.x), min(idx.kmin.y, k0.y)}
		idx.kmax = cellKey{max(idx.kmax.x, k1.x), max(idx.kmax.y, k1.y)}
		for x := k0.x; x <= k1.x; x++ {
			for y := k0.y; y <= k1.y; y++ {
				k := cellKey{x, y}
				idx.cells[k] = append(idx.cells[k], int32(i))
			}
		}
	}
	return idx
}

func (idx *SegmentIndex) key(p geom.Vec) cellKey { return keyOf(p, idx.cell) }

// box returns the lowest and highest cells overlapped by the segment's
// bounding box. Walls are short (length 10) relative to cell sizes, so
// the box is tight.
func (idx *SegmentIndex) box(s geom.Segment) (k0, k1 cellKey) {
	lo := geom.Vec{X: math.Min(s.A.X, s.B.X), Y: math.Min(s.A.Y, s.B.Y)}
	hi := geom.Vec{X: math.Max(s.A.X, s.B.X), Y: math.Max(s.A.Y, s.B.Y)}
	return idx.key(lo), idx.key(hi)
}

// Len reports the number of indexed segments.
func (idx *SegmentIndex) Len() int { return len(idx.segs) }

// Segment returns the i-th indexed segment.
func (idx *SegmentIndex) Segment(i int) geom.Segment { return idx.segs[i] }

// Within appends to dst the indices of all segments whose distance to p is
// at most r, and returns the extended slice. Segments come in grid walk
// order (see each). With a dst of sufficient capacity the query
// allocates nothing.
func (idx *SegmentIndex) Within(p geom.Vec, r float64, dst []int32) []int32 {
	idx.each(p, r, func(i int32) bool {
		dst = append(dst, i)
		return true
	})
	return dst
}

// CountWithin reports how many segments lie within r of p. This is the
// "visible walls" count that calibrates per-move compute cost (6.95 ms per
// 1000 visible walls, Section V-A2).
func (idx *SegmentIndex) CountWithin(p geom.Vec, r float64) int {
	n := 0
	idx.each(p, r, func(int32) bool {
		n++
		return true
	})
	return n
}

// AnyWithin reports whether any segment lies within r of p, stopping at
// the first one found: the wall-collision test of a move.
func (idx *SegmentIndex) AnyWithin(p geom.Vec, r float64) bool {
	found := false
	idx.each(p, r, func(int32) bool {
		found = true
		return false
	})
	return found
}

// each calls f with every segment within r of p until f returns false,
// in grid walk order: cells x-major, each segment in the first cell of
// the query box that lists it.
func (idx *SegmentIndex) each(p geom.Vec, r float64, f func(i int32) bool) {
	q, ok := idx.newQuery(p, r)
	if !ok {
		return
	}
	for x := q.k0.x; x <= q.k1.x; x++ {
		for y := q.k0.y; y <= q.k1.y; y++ {
			for _, i := range idx.cells[cellKey{x, y}] {
				if q.firstVisit(idx.first[i], x, y) && q.reaches(idx.segs[i]) && !f(i) {
					return
				}
			}
		}
	}
}

// distBand is the relative half-width of the band around r² inside which
// query.reaches defers to geom.Segment.DistTo. Squared distance and
// math.Hypot each round within a few ulps (~1e-16), far inside it.
const distBand = 1e-9

// Outside [minBandR2, maxBandR2] the squares may underflow or overflow,
// so every test defers to DistTo.
const (
	minBandR2 = 1e-200
	maxBandR2 = 1e200
)

// query is one search: the disc of radius r about p and the cells its
// bounding box covers.
type query struct {
	p      geom.Vec
	r      float64
	lo, hi float64 // squared distances below lo hit, above hi miss
	k0, k1 cellKey
}

// newQuery sets up the search for segments within r of p. ok is false
// when no segment can match: the index is empty, r is negative or NaN
// (no distance is at most that), or the query box misses every cell.
func (idx *SegmentIndex) newQuery(p geom.Vec, r float64) (q query, ok bool) {
	if !(r >= 0) || len(idx.segs) == 0 {
		return query{}, false
	}
	q = query{p: p, r: r, lo: -1, hi: math.Inf(1)}
	q.k0.x, q.k1.x, ok = idx.span(p.X, r, idx.kmin.x, idx.kmax.x)
	if !ok {
		return query{}, false
	}
	q.k0.y, q.k1.y, ok = idx.span(p.Y, r, idx.kmin.y, idx.kmax.y)
	if !ok {
		return query{}, false
	}
	if r2 := r * r; r2 >= minBandR2 && r2 <= maxBandR2 {
		q.lo, q.hi = r2*(1-distBand), r2*(1+distBand)
	}
	return q, true
}

// span returns the cells along one axis that [c-r, c+r] covers, clamped
// to the listed cells [lo, hi]. ok is false when it misses them all or c
// is NaN. Clamping skips only empty cells, and every segment's first
// cell is at least lo, so the walk order and firstVisit are unchanged.
func (idx *SegmentIndex) span(c, r float64, lo, hi int32) (k0, k1 int32, ok bool) {
	a, b := math.Floor((c-r)/idx.cell), math.Floor((c+r)/idx.cell)
	if !(a <= float64(hi) && b >= float64(lo)) {
		return 0, 0, false
	}
	k0, k1 = lo, hi
	if a > float64(lo) {
		k0 = int32(a)
	}
	if b < float64(hi) {
		k1 = int32(b)
	}
	return k0, k1, true
}

// firstVisit reports whether cell (x, y) is the first cell of the query
// box, in x-major walk order, that lists a segment whose lowest cell is
// first: the corner of the segment's cell range clamped into the box.
func (q *query) firstVisit(first cellKey, x, y int32) bool {
	return max(first.x, q.k0.x) == x && max(first.y, q.k0.y) == y
}

// reaches reports s.DistTo(q.p) <= q.r exactly, comparing squared
// distances and taking the square root only inside the rounding band.
func (q *query) reaches(s geom.Segment) bool {
	d2 := s.ClosestPoint(q.p).Dist2(q.p)
	switch {
	case d2 < q.lo:
		return true
	case d2 > q.hi:
		return false
	}
	return s.DistTo(q.p) <= q.r
}
