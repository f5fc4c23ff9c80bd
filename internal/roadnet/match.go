package roadnet

import (
	"math"

	"stmaker/internal/geo"
	"stmaker/internal/spatial"
)

// Matcher map-matches GPS points to the nearest road segment. It samples
// each edge's geometry into a spatial grid index once at construction.
type Matcher struct {
	g  *Graph
	ix *spatial.Index
}

// matchSampleSpacing is the spacing at which edge geometries are sampled
// into the index. Candidate edges are then verified with exact
// point-to-polyline distance, so the spacing only affects recall radius.
const matchSampleSpacing = 60.0

// NewMatcher builds a matcher for the graph.
func NewMatcher(g *Graph) *Matcher {
	var items []spatial.Item
	for i := range g.Edges() {
		for _, p := range g.Edge(EdgeID(i)).Geometry.Resample(matchSampleSpacing) {
			items = append(items, spatial.Item{ID: i, Pt: p})
		}
	}
	return &Matcher{g: g, ix: spatial.Build(matchSampleSpacing*2, items)}
}

// Match describes a GPS point matched onto an edge.
type Match struct {
	Edge *Edge
	// Distance is the point-to-edge distance in metres.
	Distance float64
	// Along is the distance in metres from the edge's From endpoint to the
	// projection of the point onto the edge geometry.
	Along float64
}

// Point returns the matched position on the edge: the projection of the
// GPS sample onto the edge geometry, Along metres from the From endpoint.
func (m Match) Point() geo.Point { return m.Edge.Geometry.PointAt(m.Along) }

// nearestEdgeHits sizes NearestEdge's stack buffer of grid hits. At the
// default 150 m match radius a sample sees a few dozen edge sample points
// even at a busy intersection; a query with more spills to the heap.
const nearestEdgeHits = 128

// NearestEdge returns the edge closest to p within maxDist metres. The
// boolean is false when no edge qualifies. Among edges at bit-equal
// distances the lowest EdgeID wins, so the grid's hit order never decides
// a match: a fix behind a node projects, clamped to the node, onto every
// edge that starts there at exactly the same distance.
func (m *Matcher) NearestEdge(p geo.Point, maxDist float64) (Match, bool) {
	var buf [nearestEdgeHits]spatial.Result
	hits := m.ix.AppendWithin(buf[:0], p, maxDist+matchSampleSpacing)
	best := Match{Distance: math.Inf(1)}
	// Small-slice dedupe, as in candidateEdges: an edge is sampled every
	// matchSampleSpacing metres, so it shows up several times.
	var seenArr [32]int
	seen := seenArr[:0]
	for _, h := range hits {
		dup := false
		for _, id := range seen {
			if id == h.ID {
				dup = true
				break
			}
		}
		if dup {
			continue
		}
		seen = append(seen, h.ID)
		e := m.g.Edge(EdgeID(h.ID))
		d, seg, t := e.Geometry.NearestPoint(p)
		if d < best.Distance || best.Edge != nil && d == best.Distance && e.ID < best.Edge.ID { //lint:allow floateq -- exact ties are broken by edge id
			best = Match{Edge: e, Distance: d, Along: e.Geometry.DistanceAlong(seg, t)}
		}
	}
	if best.Edge == nil || best.Distance > maxDist {
		return Match{}, false
	}
	return best, true
}

// NearestNode returns the graph node closest to p, or false when the graph
// is empty. It is a linear scan intended for path endpoints, not per-sample
// matching.
func (g *Graph) NearestNode(p geo.Point) (NodeID, bool) {
	best := NodeID(-1)
	bestD := math.Inf(1)
	for _, n := range g.nodes {
		if d := geo.Distance(p, n.Pt); d < bestD {
			best, bestD = n.ID, d
		}
	}
	if best < 0 {
		return 0, false
	}
	return best, true
}
