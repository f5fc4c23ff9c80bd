package spatial

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"stmaker/internal/geo"
)

// refIndex is the map-backed grid the flat index replaced, kept verbatim
// in behaviour: cells in a map, a full haversine per candidate, the same
// cell-span arithmetic and the same sort. Within must reproduce its output
// element for element wherever its cell span is conservative (city-scale
// radii away from the poles and the antimeridian).
type refIndex struct {
	cellDeg float64
	cells   map[[2]int32][]Item
}

func newRefIndex(cellMeters float64, items []Item) *refIndex {
	if cellMeters <= 0 {
		cellMeters = 250
	}
	ix := &refIndex{cellDeg: cellMeters / geo.EarthRadiusMeters * 180 / math.Pi, cells: map[[2]int32][]Item{}}
	for _, it := range items {
		k := ix.key(it.Pt)
		ix.cells[k] = append(ix.cells[k], it)
	}
	return ix
}

func (ix *refIndex) key(p geo.Point) [2]int32 {
	return [2]int32{int32(math.Floor(p.Lat / ix.cellDeg)), int32(math.Floor(p.Lng / ix.cellDeg))}
}

func (ix *refIndex) Within(p geo.Point, radius float64) []Result {
	if radius < 0 {
		return nil
	}
	degRadius := radius / geo.EarthRadiusMeters * 180 / math.Pi
	cosLat := math.Cos(p.Lat * math.Pi / 180)
	if cosLat < 0.01 {
		cosLat = 0.01
	}
	rowSpan := int32(math.Ceil(degRadius/ix.cellDeg)) + 1
	colSpan := int32(math.Ceil(degRadius/(ix.cellDeg*cosLat))) + 1
	c := ix.key(p)
	var out []Result
	for dr := -rowSpan; dr <= rowSpan; dr++ {
		for dc := -colSpan; dc <= colSpan; dc++ {
			for _, it := range ix.cells[[2]int32{c[0] + dr, c[1] + dc}] {
				if d := geo.Distance(p, it.Pt); d <= radius {
					out = append(out, Result{ID: it.ID, Point: it.Pt, Distance: d})
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Distance < out[j].Distance })
	return out
}

// scene is one randomized index plus the queries to run against it.
type scene struct {
	name    string
	cell    float64
	items   []Item
	queries []geo.Point
	radii   []float64
	// cityScale marks scenes where the reference grid is exact, so
	// Within must match it element for element.
	cityScale bool
}

// cloud returns n points within spread metres of centre, a fifth of them
// duplicates of earlier points and a fifth snapped onto cell boundaries.
func cloud(rng *rand.Rand, centre geo.Point, spread, cellMeters float64, n int) []geo.Point {
	cellDeg := cellMeters / geo.EarthRadiusMeters * 180 / math.Pi
	pts := make([]geo.Point, 0, n)
	for len(pts) < n {
		p := geo.Destination(centre, rng.Float64()*360, rng.Float64()*spread)
		switch k := rng.Intn(5); {
		case k == 0 && len(pts) > 0:
			p = pts[rng.Intn(len(pts))]
		case k == 1:
			p.Lat = math.Round(p.Lat/cellDeg) * cellDeg
			if rng.Intn(2) == 0 {
				p.Lng = math.Round(p.Lng/cellDeg) * cellDeg
			}
		}
		if p.Valid() {
			pts = append(pts, p)
		}
	}
	return pts
}

func scenes() []scene {
	rng := rand.New(rand.NewSource(42))
	var out []scene
	city := func(name string, centre geo.Point, cell, spread float64, n int, cityScale bool) scene {
		pts := cloud(rng, centre, spread, cell, n)
		sc := scene{name: name, cell: cell, items: itemsOf(pts), cityScale: cityScale,
			radii: []float64{-1, 0, 1, 37.5, cell, 2.5 * cell, spread / 3}}
		if !cityScale {
			sc.radii = append(sc.radii, spread, 3*spread, 1e6, math.Pi*geo.EarthRadiusMeters, 1e9, math.Inf(1))
		}
		for i := 0; i < 40; i++ {
			q := geo.Destination(centre, rng.Float64()*360, rng.Float64()*spread*1.2)
			if i%4 == 0 {
				q = pts[rng.Intn(len(pts))] // exactly on an item
			}
			sc.queries = append(sc.queries, q)
		}
		return sc
	}
	out = append(out,
		city("beijing-250m", origin, 250, 3000, 400, true),
		city("beijing-60m", origin, 60, 1500, 400, true),
		city("equator-120m", geo.Point{Lat: 0.001, Lng: 10}, 120, 2000, 300, true),
		city("beijing-large-radii", origin, 250, 5000, 300, false),
		city("north-pole", geo.Point{Lat: 89.99, Lng: 30}, 200, 4000, 300, false),
		city("south-pole", geo.Point{Lat: -89.995, Lng: -120}, 200, 3000, 300, false),
		city("antimeridian", geo.Point{Lat: -17, Lng: 179.995}, 150, 3000, 300, false),
		city("high-latitude", geo.Point{Lat: 70, Lng: 25}, 300, 200000, 300, false),
	)
	// Points over the whole globe with city-sized cells: the grid has to
	// coarsen to bound its offset array.
	var world []geo.Point
	for i := 0; i < 300; i++ {
		world = append(world, geo.Point{Lat: rng.Float64()*180 - 90, Lng: rng.Float64()*360 - 180})
	}
	ws := scene{name: "whole-globe", cell: 50, items: itemsOf(world),
		radii: []float64{0, 1000, 5e5, 3e6, 2e7, math.Inf(1)}}
	for i := 0; i < 30; i++ {
		ws.queries = append(ws.queries, world[rng.Intn(len(world))],
			geo.Point{Lat: rng.Float64()*180 - 90, Lng: rng.Float64()*360 - 180})
	}
	out = append(out, ws,
		scene{name: "empty", cell: 100, queries: []geo.Point{origin}, radii: []float64{0, 1e3, 1e5}, cityScale: true},
		scene{name: "single", cell: 100, items: []Item{{ID: 7, Pt: origin}}, queries: []geo.Point{origin, geo.Destination(origin, 10, 50)},
			radii: []float64{-5, 0, 49, 50, 51, 1e5}, cityScale: true},
	)
	return out
}

// radiiFor is the scene's radii plus, for query qi, the exact distances
// to three of its items: a hit sitting on the boundary of the radius
// must survive the prefilter.
func (sc scene) radiiFor(qi int) []float64 {
	radii := append([]float64(nil), sc.radii...)
	for k := 0; k < 3 && len(sc.items) > 0; k++ {
		radii = append(radii, geo.Distance(sc.queries[qi], sc.items[(qi*7+k*13)%len(sc.items)].Pt))
	}
	return radii
}

// bruteWithin is the definition AppendWithin must meet: every item whose
// geo.Distance from p is at most radius, in input order.
func bruteWithin(items []Item, p geo.Point, radius float64) []Result {
	var out []Result
	for _, it := range items {
		if d := geo.Distance(p, it.Pt); d <= radius {
			out = append(out, Result{ID: it.ID, Point: it.Pt, Distance: d})
		}
	}
	return out
}

// sameSet compares two hit lists as multisets, distances bit for bit.
func sameSet(got, want []Result) error {
	key := func(r Result) string {
		return fmt.Sprintf("%d/%x/%x/%x", r.ID, math.Float64bits(r.Point.Lat), math.Float64bits(r.Point.Lng), math.Float64bits(r.Distance))
	}
	count := map[string]int{}
	for _, r := range want {
		count[key(r)]++
	}
	for _, r := range got {
		k := key(r)
		if count[k] == 0 {
			return fmt.Errorf("unexpected or duplicated hit %+v (dist bits %x)", r, math.Float64bits(r.Distance))
		}
		count[k]--
	}
	if len(got) != len(want) {
		return fmt.Errorf("got %d hits, want %d", len(got), len(want))
	}
	return nil
}

func TestAppendWithinMatchesBruteForce(t *testing.T) {
	for _, sc := range scenes() {
		ix := Build(sc.cell, sc.items)
		for qi, q := range sc.queries {
			for _, r := range sc.radiiFor(qi) {
				got := ix.AppendWithin(nil, q, r)
				if err := sameSet(got, bruteWithin(sc.items, q, r)); err != nil {
					t.Fatalf("%s query %d %v radius %g: %v", sc.name, qi, q, r, err)
				}
			}
		}
	}
}

func TestWithinIsSortedAppendWithin(t *testing.T) {
	for _, sc := range scenes() {
		ix := Build(sc.cell, sc.items)
		for qi, q := range sc.queries {
			for _, r := range sc.radiiFor(qi) {
				got := ix.Within(q, r)
				if err := sameSet(got, bruteWithin(sc.items, q, r)); err != nil {
					t.Fatalf("%s query %d radius %g: %v", sc.name, qi, r, err)
				}
				for i := 1; i < len(got); i++ {
					if got[i].Distance < got[i-1].Distance {
						t.Fatalf("%s query %d radius %g: not sorted at %d", sc.name, qi, r, i)
					}
				}
			}
		}
	}
}

func TestWithinMatchesReferenceGrid(t *testing.T) {
	compared := 0
	for _, sc := range scenes() {
		if !sc.cityScale {
			continue
		}
		ix := Build(sc.cell, sc.items)
		ref := newRefIndex(sc.cell, sc.items)
		for qi, q := range sc.queries {
			for _, r := range sc.radiiFor(qi) {
				got, want := ix.Within(q, r), ref.Within(q, r)
				if (got == nil) != (want == nil) || len(got) != len(want) {
					t.Fatalf("%s query %d radius %g: got %d hits (nil %v), want %d (nil %v)",
						sc.name, qi, r, len(got), got == nil, len(want), want == nil)
				}
				for i := range want {
					if got[i].ID != want[i].ID || got[i].Point != want[i].Point ||
						math.Float64bits(got[i].Distance) != math.Float64bits(want[i].Distance) {
						t.Fatalf("%s query %d radius %g: element %d = %+v, want %+v", sc.name, qi, r, i, got[i], want[i])
					}
				}
				compared += len(want)
			}
		}
	}
	if compared < 1000 {
		t.Fatalf("only %d hits compared; the scenes are too sparse to mean anything", compared)
	}
}

// bruteNearest takes the first strict minimum over the items in row-major
// cell order (input order within a cell), the order the grid visits them.
func bruteNearest(ix *Index, items []Item, p geo.Point, maxRadius float64) (Result, bool) {
	order := make([]int, len(items))
	for i := range order {
		order[i] = i
	}
	cellOf := func(pt geo.Point) [2]float64 {
		return [2]float64{math.Floor(pt.Lat / ix.cellDeg), math.Floor(pt.Lng / ix.cellDeg)}
	}
	sort.SliceStable(order, func(a, b int) bool {
		ca, cb := cellOf(items[order[a]].Pt), cellOf(items[order[b]].Pt)
		if ca[0] != cb[0] { //lint:allow floateq -- integral cell coordinates
			return ca[0] < cb[0]
		}
		return ca[1] < cb[1]
	})
	best := Result{Distance: math.Inf(1)}
	found := false
	for _, i := range order {
		it := items[i]
		if d := geo.Distance(p, it.Pt); d <= maxRadius && d < best.Distance {
			best, found = Result{ID: it.ID, Point: it.Pt, Distance: d}, true
		}
	}
	if !found {
		return Result{}, false
	}
	return best, true
}

func TestNearestMatchesRowMajorBruteForce(t *testing.T) {
	for _, sc := range scenes() {
		ix := Build(sc.cell, sc.items)
		for qi, q := range sc.queries {
			for _, r := range sc.radiiFor(qi) {
				got, gotOK := ix.Nearest(q, r)
				want, wantOK := bruteNearest(ix, sc.items, q, r)
				if gotOK != wantOK || got.ID != want.ID || got.Point != want.Point ||
					math.Float64bits(got.Distance) != math.Float64bits(want.Distance) {
					t.Fatalf("%s query %d radius %g: Nearest = %+v %v, want %+v %v", sc.name, qi, r, got, gotOK, want, wantOK)
				}
			}
		}
	}
}

func TestNearestPrefersFirstInGridOrderOnTies(t *testing.T) {
	// Two items at one location, ids given out of order: the one built
	// first wins, whatever its id.
	ix := Build(250, []Item{{ID: 9, Pt: origin}, {ID: 3, Pt: origin}})
	if r, ok := ix.Nearest(geo.Destination(origin, 0, 10), 100); !ok || r.ID != 9 {
		t.Fatalf("Nearest = %+v %v, want id 9", r, ok)
	}
}

func TestInvalidPointsAreNotIndexed(t *testing.T) {
	ix := Build(250, []Item{
		{ID: 1, Pt: origin},
		{ID: 2, Pt: geo.Point{Lat: math.NaN(), Lng: 116.4}},
		{ID: 3, Pt: geo.Point{Lat: 91, Lng: 116.4}},
		{ID: 4, Pt: geo.Point{Lat: 39.9, Lng: math.Inf(1)}},
	})
	if ix.Len() != 1 {
		t.Fatalf("Len = %d, want 1", ix.Len())
	}
	if got := ix.Within(origin, math.Inf(1)); len(got) != 1 || got[0].ID != 1 {
		t.Fatalf("Within = %+v", got)
	}
	if got := ix.Within(geo.Point{Lat: math.NaN(), Lng: 0}, 1e9); got != nil {
		t.Fatalf("Within(NaN point) = %+v", got)
	}
	if got := ix.AppendWithin(nil, origin, math.NaN()); got != nil {
		t.Fatalf("AppendWithin(NaN radius) = %+v", got)
	}
}

func TestAppendWithinDoesNotAllocate(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	ix := Build(120, itemsOf(cloud(rng, origin, 3000, 120, 2000)))
	buf := make([]Result, 0, 256)
	var hits int
	allocs := testing.AllocsPerRun(100, func() {
		buf = ix.AppendWithin(buf[:0], origin, 200)
		hits = len(buf)
	})
	if hits == 0 {
		t.Fatal("query found nothing; the pin would be vacuous")
	}
	if allocs != 0 {
		t.Fatalf("AppendWithin allocates %.1f times per call with room in dst", allocs)
	}
}

func BenchmarkWithin(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	pts := cloud(rng, origin, 4000, 120, 4000)
	ix := Build(120, itemsOf(pts))
	queries := make([]geo.Point, 256)
	for i := range queries {
		queries[i] = geo.Destination(origin, rng.Float64()*360, rng.Float64()*4000)
	}
	b.Run("sorted", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ix.Within(queries[i%len(queries)], 210)
		}
	})
	b.Run("append", func(b *testing.B) {
		buf := make([]Result, 0, 256)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			buf = ix.AppendWithin(buf[:0], queries[i%len(queries)], 210)
		}
	})
}
