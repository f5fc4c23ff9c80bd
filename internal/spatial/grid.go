// Package spatial provides a uniform grid index over geographic points for
// fast nearest-neighbour and radius queries. It is the workhorse behind
// map-matching (§III-A), landmark lookup (Def. 2) and trajectory
// calibration (§II-A). The index is built once from all of its items and
// is immutable afterwards, so concurrent queries — including the parallel
// corpus calibration in Train — need no locking.
//
// Layout: the entries sit in one slice, ordered row-major by grid cell and
// in input order within a cell, with CSR offsets over the occupied
// bounding box of cells. One row of a query's cell range is therefore one
// contiguous sub-slice. Each entry carries its latitude in radians and
// its cosine, so a query evaluates only the haversine term h per
// candidate (geo.Haversine) and compares it with sin²(r/2R); the square
// root and arcsine run for survivors alone, through the same
// geo.HaversineDistance that geo.Distance uses, so every reported
// distance equals geo.Distance bit for bit.
package spatial

import (
	"math"
	"sort"

	"stmaker/internal/geo"
)

// Item is one point to index: an integer id and its location. Several
// items may share an id; the index does not deduplicate.
type Item struct {
	ID int
	Pt geo.Point
}

// Index is an immutable uniform grid over lat/lng space. Build it with
// Build; the zero value is an empty index.
type Index struct {
	cellDeg    float64
	row0, col0 int // cell coordinates of the bounding box's low corner
	rows, cols int
	// start holds CSR offsets: the entries of cell (r, c), relative to
	// row0/col0, are entries[start[r*cols+c]:start[r*cols+c+1]].
	start   []int32
	entries []entry
}

type entry struct {
	pt             geo.Point
	latRad, cosLat float64
	id             int
}

// Result is a single query hit.
type Result struct {
	ID       int
	Point    geo.Point
	Distance float64 // metres from the query point
}

// maxCellsPerItem bounds the dense offset array: a grid whose bounding
// box would hold more than minCells + maxCellsPerItem·n cells (points
// spread over a continent with city-sized cells) doubles its cell size
// until it fits. Only the visit order among hits — and with it which of
// several bit-equal distances comes first — depends on the cell size.
const (
	minCells        = 1 << 16
	maxCellsPerItem = 8
)

// Build returns an index over items whose grid cells are approximately
// cellMeters on a side (a non-positive size falls back to 250 m; typical
// usage is 200–500 m for a city-scale dataset). Items whose point is not
// a valid coordinate (geo.Point.Valid) are left out: no query returns
// them.
func Build(cellMeters float64, items []Item) *Index {
	if cellMeters <= 0 {
		cellMeters = 250
	}
	// Degrees of latitude per cell; longitude cells use the same degree
	// size, which makes them narrower in metres away from the equator.
	// Queries derive their column range from the latitude band they
	// cover, so this only changes how many columns a query visits.
	ix := &Index{cellDeg: cellMeters / geo.EarthRadiusMeters * 180 / math.Pi}
	valid := make([]Item, 0, len(items))
	minLat, maxLat := math.Inf(1), math.Inf(-1)
	minLng, maxLng := math.Inf(1), math.Inf(-1)
	for _, it := range items {
		if !it.Pt.Valid() {
			continue
		}
		valid = append(valid, it)
		minLat, maxLat = math.Min(minLat, it.Pt.Lat), math.Max(maxLat, it.Pt.Lat)
		minLng, maxLng = math.Min(minLng, it.Pt.Lng), math.Max(maxLng, it.Pt.Lng)
	}
	if len(valid) == 0 {
		return ix
	}
	limit := float64(minCells + maxCellsPerItem*len(valid))
	for {
		rows := math.Floor(maxLat/ix.cellDeg) - math.Floor(minLat/ix.cellDeg) + 1
		cols := math.Floor(maxLng/ix.cellDeg) - math.Floor(minLng/ix.cellDeg) + 1
		if rows*cols <= limit {
			break
		}
		ix.cellDeg *= 2
	}
	ix.row0 = int(math.Floor(minLat / ix.cellDeg))
	ix.col0 = int(math.Floor(minLng / ix.cellDeg))
	ix.rows = int(math.Floor(maxLat/ix.cellDeg)) - ix.row0 + 1
	ix.cols = int(math.Floor(maxLng/ix.cellDeg)) - ix.col0 + 1

	// Counting sort by cell: stable, so input order survives within a cell.
	cellOf := make([]int32, len(valid))
	ix.start = make([]int32, ix.rows*ix.cols+1)
	for i, it := range valid {
		c := ix.cell(it.Pt)
		cellOf[i] = int32(c)
		ix.start[c+1]++
	}
	for c := 1; c < len(ix.start); c++ {
		ix.start[c] += ix.start[c-1]
	}
	next := append([]int32(nil), ix.start[:len(ix.start)-1]...)
	ix.entries = make([]entry, len(valid))
	for i, it := range valid {
		latRad := geo.Radians(it.Pt.Lat)
		ix.entries[next[cellOf[i]]] = entry{pt: it.Pt, latRad: latRad, cosLat: math.Cos(latRad), id: it.ID}
		next[cellOf[i]]++
	}
	return ix
}

// cell returns the dense cell number of an indexed point.
func (ix *Index) cell(p geo.Point) int {
	r := int(math.Floor(p.Lat/ix.cellDeg)) - ix.row0
	c := int(math.Floor(p.Lng/ix.cellDeg)) - ix.col0
	return r*ix.cols + c
}

// Len returns the number of indexed items.
func (ix *Index) Len() int { return len(ix.entries) }

// Slack that keeps the cell range and the prefilter conservative against
// floating-point rounding: a relative 1e-9 plus an absolute 1e-9° (about
// 0.1 mm) on the ranges, and a relative 1e-9 on the haversine threshold.
// Both sit many orders of magnitude above the rounding error of the
// computations they bound.
const (
	relSlack = 1e-9
	degSlack = 1e-9
)

// query is the precomputed plan of one radius query: the query point's
// trigonometry, the haversine threshold, and the cell rows and column
// spans (at most two, ascending, after longitude wrap-around) to visit.
type query struct {
	latRad, cosLat float64
	hMax           float64
	r0, r1         int
	spans          [2][2]int
	nspans         int
}

// plan computes the cells that can hold a point within radius of p. It
// reports false when nothing can match: an empty index, a negative or NaN
// radius, or an invalid query point.
//
// The range is provably conservative. Rows: the haversine distance
// satisfies d ≥ R·|Δφ|, so a hit's latitude lies within r/R radians of
// p's. Columns: h ≥ cos φp·cos φe·sin²(Δλ/2) and d ≤ r ⇔ h ≤ sin²(r/2R),
// so sin(|Δλ|/2) ≤ sin(r/2R)/√(cos φp·cmin), where cmin is the smallest
// cos φ over the latitude band — the band edge farthest from the equator.
func (ix *Index) plan(p geo.Point, radius float64) (query, bool) {
	if len(ix.entries) == 0 || !(radius >= 0) || !p.Valid() {
		return query{}, false
	}
	q := query{latRad: geo.Radians(p.Lat)}
	q.cosLat = math.Cos(q.latRad)
	half := math.Min(radius/(2*geo.EarthRadiusMeters), math.Pi/2) // r/2R
	q.hMax = math.Inf(1)
	if half < math.Pi/2 {
		s := math.Sin(half)
		q.hMax = s*s*(1+relSlack) + math.SmallestNonzeroFloat64
	}

	dDeg := radius/geo.EarthRadiusMeters*180/math.Pi*(1+relSlack) + degSlack
	lo, hi := p.Lat-dDeg, p.Lat+dDeg
	r0 := math.Floor(lo/ix.cellDeg) - float64(ix.row0)
	r1 := math.Floor(hi/ix.cellDeg) - float64(ix.row0)
	if r1 < 0 || r0 > float64(ix.rows-1) {
		return query{}, false
	}
	q.r0, q.r1 = int(math.Max(r0, 0)), int(math.Min(r1, float64(ix.rows-1)))

	wDeg := 360.0 // a band reaching a pole spans every longitude
	if edge := math.Max(math.Abs(lo), math.Abs(hi)); edge < 90 {
		if arg := math.Sin(half) / math.Sqrt(q.cosLat*math.Cos(geo.Radians(edge))); arg < 1 {
			wDeg = 2*math.Asin(arg)*180/math.Pi*(1+relSlack) + degSlack
		}
	}
	if wDeg >= 180 {
		q.spans[0], q.nspans = [2]int{0, ix.cols - 1}, 1
		return q, true
	}
	// Entries hold longitudes in [-180, 180]; a span crossing the
	// antimeridian continues at the other end of the grid, which comes
	// first in row-major order.
	switch {
	case p.Lng+wDeg > 180:
		q.addSpan(ix, -180, p.Lng+wDeg-360)
		q.addSpan(ix, p.Lng-wDeg, 180)
	case p.Lng-wDeg < -180:
		q.addSpan(ix, -180, p.Lng+wDeg)
		q.addSpan(ix, p.Lng-wDeg+360, 180)
	default:
		q.addSpan(ix, p.Lng-wDeg, p.Lng+wDeg)
	}
	return q, q.nspans > 0
}

// addSpan appends the grid columns covering longitudes [lo, hi], merging
// it into the previous span when the two share or touch a column.
func (q *query) addSpan(ix *Index, lo, hi float64) {
	c0 := math.Floor(lo/ix.cellDeg) - float64(ix.col0)
	c1 := math.Floor(hi/ix.cellDeg) - float64(ix.col0)
	if c1 < 0 || c0 > float64(ix.cols-1) {
		return
	}
	s := [2]int{int(math.Max(c0, 0)), int(math.Min(c1, float64(ix.cols-1)))}
	if q.nspans > 0 && s[0] <= q.spans[q.nspans-1][1]+1 {
		q.spans[q.nspans-1][1] = max(q.spans[q.nspans-1][1], s[1])
		return
	}
	q.spans[q.nspans] = s
	q.nspans++
}

// AppendWithin appends every item within radius metres of p to dst, in
// grid order (row-major by cell, input order within a cell), and returns
// the extended slice. It allocates only when dst runs out of room.
func (ix *Index) AppendWithin(dst []Result, p geo.Point, radius float64) []Result {
	q, ok := ix.plan(p, radius)
	if !ok {
		return dst
	}
	for r := q.r0; r <= q.r1; r++ {
		for _, s := range q.spans[:q.nspans] {
			es := ix.entries[ix.start[r*ix.cols+s[0]]:ix.start[r*ix.cols+s[1]+1]]
			for i := range es {
				e := &es[i]
				// The threshold rejects a candidate before the square
				// root and arcsine; survivors get the exact check.
				h := geo.Haversine(q.latRad, q.cosLat, p.Lng, e.latRad, e.cosLat, e.pt.Lng)
				if h > q.hMax {
					continue
				}
				if d := geo.HaversineDistance(h); d <= radius {
					dst = append(dst, Result{ID: e.id, Point: e.pt, Distance: d})
				}
			}
		}
	}
	return dst
}

// Within returns all items within radius metres of p, sorted by ascending
// distance. It is AppendWithin followed by sort.Slice, so among items at
// bit-equal distances the order is whatever that sort makes of the grid
// order.
func (ix *Index) Within(p geo.Point, radius float64) []Result {
	out := ix.AppendWithin(nil, p, radius)
	sort.Slice(out, func(i, j int) bool { return out[i].Distance < out[j].Distance })
	return out
}

// Nearest returns the closest item to p within maxRadius metres and true,
// or a zero Result and false if none exists. Among items at the same
// distance, the first in grid order wins.
func (ix *Index) Nearest(p geo.Point, maxRadius float64) (Result, bool) {
	q, ok := ix.plan(p, maxRadius)
	if !ok {
		return Result{}, false
	}
	best := Result{Distance: math.Inf(1)}
	found := false
	for r := q.r0; r <= q.r1; r++ {
		for _, s := range q.spans[:q.nspans] {
			es := ix.entries[ix.start[r*ix.cols+s[0]]:ix.start[r*ix.cols+s[1]+1]]
			for i := range es {
				e := &es[i]
				h := geo.Haversine(q.latRad, q.cosLat, p.Lng, e.latRad, e.cosLat, e.pt.Lng)
				if h > q.hMax {
					continue
				}
				if d := geo.HaversineDistance(h); d <= maxRadius && d < best.Distance {
					best = Result{ID: e.id, Point: e.pt, Distance: d}
					found = true
				}
			}
		}
	}
	if !found {
		return Result{}, false
	}
	return best, true
}
