package summarize

import (
	"sort"

	"stmaker/internal/feature"
	"stmaker/internal/geo"
	"stmaker/internal/history"
	"stmaker/internal/irregular"
	"stmaker/internal/landmark"
	"stmaker/internal/partition"
	"stmaker/internal/roadnet"
	"stmaker/internal/traj"
)

// Selector chooses the most irregular features of each partition by
// comparing against historical knowledge (§V).
type Selector struct {
	// Registry must match the one used for feature extraction.
	Registry *feature.Registry
	// Ctx must be the Context the trajectory's extraction ran through,
	// still holding it (not yet released): selection reads the segments'
	// matched edges and the stays and U-turns extraction kept there.
	Ctx *feature.Context
	// Popular mines the most popular route between landmarks (§V-A).
	Popular *history.Popular
	// FeatureMap provides regular values per landmark transition (§V-B).
	FeatureMap *history.FeatureMap
	// Landmarks resolves landmark names for by-products.
	Landmarks *landmark.Set
	// Weights are the user-specified feature weights w_f.
	Weights feature.Weights
	// Threshold is η; features with Γf(TP) > η are selected
	// (default irregular.DefaultThreshold).
	Threshold float64
	// GlobalMeanFallback substitutes the corpus-wide feature mean when the
	// historical feature map has no data for a transition. When false,
	// such segments are skipped in the moving-rate computation.
	GlobalMeanFallback bool

	// Per-request scratch, lazily sized on first use and reused across
	// the trajectory's partitions. A Selector is therefore not safe for
	// concurrent use; build one per request (they are cheap).
	descs       []feature.Descriptor
	wvec        []float64
	vals        []float64
	seq         []float64
	tpLandmarks []int
	segRows     [][]float64
	routeRows   [][]float64
}

// prepare caches the per-request invariants: feature metadata and the
// weight vector, both constant across the trajectory's partitions.
func (sel *Selector) prepare() {
	if sel.descs == nil {
		sel.descs = sel.Registry.Descriptors()
		sel.wvec = sel.Weights.VectorFor(sel.Registry)
	}
}

func (sel *Selector) threshold() float64 {
	if sel.Threshold > 0 {
		return sel.Threshold
	}
	return irregular.DefaultThreshold
}

// SelectForPart computes the irregular rate of every registered feature on
// the partition and returns the selected ones, most irregular first.
// matrix holds the raw (unnormalized) feature vectors of every segment of
// the whole trajectory.
func (sel *Selector) SelectForPart(s *traj.Symbolic, part partition.Part, matrix []feature.Vector) []SelectedFeature {
	sel.prepare()
	descs, wvec := sel.descs, sel.wvec

	// Landmark sequences of the partition and of the popular route
	// between its endpoints.
	tpLandmarks := sel.tpLandmarks[:0]
	for i := part.FirstSeg; i <= part.LastSeg; i++ {
		tpLandmarks = append(tpLandmarks, s.Visits[i].Landmark)
	}
	tpLandmarks = append(tpLandmarks, s.Visits[part.LastSeg+1].Landmark)
	sel.tpLandmarks = tpLandmarks
	var prRoute []int
	if sel.Popular != nil {
		if route, ok := sel.Popular.Route(tpLandmarks[0], tpLandmarks[len(tpLandmarks)-1]); ok {
			prRoute = route
		}
	}

	// Each transition's regular vector is looked up once per partition and
	// then indexed by feature.
	segRows, segOK := sel.transitionRows(sel.segRows[:0], tpLandmarks)
	routeRows, routeOK := sel.transitionRows(sel.routeRows[:0], prRoute)
	sel.segRows, sel.routeRows = segRows, routeRows

	var selected []SelectedFeature
	for j, d := range descs {
		vals := sel.vals[:0]
		for i := part.FirstSeg; i <= part.LastSeg; i++ {
			vals = append(vals, matrix[i][j])
		}
		sel.vals = vals
		var rate float64
		sf := SelectedFeature{Key: d.Key, Name: d.Name, Class: d.Class, Numeric: d.Numeric}
		switch d.Class {
		case feature.Routing:
			if !routeOK {
				// No historical route to compare against: the routing
				// feature cannot be judged irregular.
				break
			}
			prSeq := sel.column(routeRows, j)
			rate = irregular.RoutingRate(vals, prSeq, d.Numeric, wvec[j])
			sf.Regular, sf.HasRegular = aggregate(prSeq, d.Numeric)
		case feature.Moving:
			if !segOK {
				break
			}
			regular := sel.column(segRows, j)
			rate = irregular.MovingRate(vals, regular, wvec[j])
			sf.Regular, sf.HasRegular = aggregate(regular, d.Numeric)
		}
		if rate <= sel.threshold() {
			continue
		}
		sf.Rate = rate
		sf.Value, _ = aggregate(vals, d.Numeric)
		sel.attachByProducts(&sf, s, part)
		selected = append(selected, sf)
	}
	sort.SliceStable(selected, func(a, b int) bool { return selected[a].Rate > selected[b].Rate })
	return selected
}

// transitionRows appends to dst the historical regular vector of every
// transition along the landmark sequence ids: the partition's own
// segments, or the hops of its popular route. A transition the corpus
// never travelled takes the global regular vector when the fallback is
// on; otherwise the sequence cannot be compared and ok is false, as it
// is without a feature map or with fewer than two landmarks.
func (sel *Selector) transitionRows(dst [][]float64, ids []int) ([][]float64, bool) {
	if len(ids) < 2 || sel.FeatureMap == nil {
		return dst, false
	}
	for i := 1; i < len(ids); i++ {
		r, ok := sel.FeatureMap.Regular(ids[i-1], ids[i])
		if !ok {
			if !sel.GlobalMeanFallback {
				return dst, false
			}
			r = sel.FeatureMap.GlobalMean()
		}
		dst = append(dst, r)
	}
	return dst, true
}

// column gathers feature dimension j of every row into the selector's
// scratch sequence.
func (sel *Selector) column(rows [][]float64, j int) []float64 {
	seq := sel.seq[:0]
	for _, r := range rows {
		seq = append(seq, r[j])
	}
	sel.seq = seq
	return seq
}

// aggregate collapses per-segment values into a partition-level value:
// the mean for numeric features, the mode for categorical ones. ok is
// false for empty input.
func aggregate(vals []float64, numeric bool) (v float64, ok bool) {
	if len(vals) == 0 {
		return 0, false
	}
	if numeric {
		var sum float64
		for _, x := range vals {
			sum += x
		}
		return sum / float64(len(vals)), true
	}
	// Mode of category codes. Categorical features draw from single-digit
	// code sets (road grades 1–7, directions 1–2), so a small linear-scan
	// table beats a map allocation on this per-partition hot path; the
	// map remains as overflow for exotic registered features.
	var keys [8]float64
	var cnts [8]int
	distinct := 0
	var overflow map[float64]int
	for _, x := range vals {
		found := false
		for i := 0; i < distinct; i++ {
			//lint:allow floateq -- category codes are exact small integers
			if keys[i] == x {
				cnts[i]++
				found = true
				break
			}
		}
		if found {
			continue
		}
		if distinct < len(keys) {
			keys[distinct], cnts[distinct] = x, 1
			distinct++
			continue
		}
		if overflow == nil {
			overflow = make(map[float64]int)
		}
		overflow[x]++
	}
	best, bestN := 0.0, 0
	for i := 0; i < distinct; i++ {
		if cnts[i] > bestN || (cnts[i] == bestN && keys[i] < best) {
			best, bestN = keys[i], cnts[i]
		}
	}
	for x, n := range overflow {
		if n > bestN || (n == bestN && x < best) {
			best, bestN = x, n
		}
	}
	return best, true
}

// attachByProducts fills the extraction by-products the templates present
// (stay locations and durations, U-turn places, road names — §VI-A). The
// stays and U-turns are those extraction kept in sel.Ctx; only selected
// features get their landmarks named.
func (sel *Selector) attachByProducts(sf *SelectedFeature, s *traj.Symbolic, part partition.Part) {
	switch sf.Key {
	case feature.KeyStayPoints:
		for i := part.FirstSeg; i <= part.LastSeg; i++ {
			sf.Stays = append(sf.Stays, sel.Ctx.Stays(s.Segment(i))...)
		}
		for _, st := range sf.Stays {
			sf.TotalStay += st.Duration
			sf.StayAt = append(sf.StayAt, sel.placeName(st.Center))
		}
	case feature.KeyUTurns:
		for i := part.FirstSeg; i <= part.LastSeg; i++ {
			sf.UTurns = append(sf.UTurns, sel.Ctx.UTurns(s.Segment(i))...)
		}
		for _, u := range sf.UTurns {
			sf.UTurnAt = append(sf.UTurnAt, sel.placeName(u.At))
		}
	case feature.KeyGradeOfRoad:
		if sel.Ctx != nil {
			_, sf.RoadName, _ = RoadForPart(sel.Ctx, s, part)
		}
	}
}

// placeName names the landmark within 500 m of p, or "" when there is
// none.
func (sel *Selector) placeName(p geo.Point) string {
	if sel.Landmarks != nil {
		if lm, ok := sel.Landmarks.Nearest(p, 500); ok {
			return lm.Name
		}
	}
	return ""
}

// RoadForPart returns the partition's dominant road grade together with
// the most common road name among the edges of that grade, so the
// sentence templates' "road type (road name)" slot is internally
// consistent. ok is false when no segment could be map-matched.
func RoadForPart(ctx *feature.Context, s *traj.Symbolic, part partition.Part) (grade roadnet.Grade, name string, ok bool) {
	// Two passes over the (cached) segment edges: grade codes 1–7 fit a
	// fixed count array, and the name map is only built for the modal
	// grade — this runs per partition on the serving hot path, so the
	// common all-unnamed case must not allocate.
	var grades [8]int
	for i := part.FirstSeg; i <= part.LastSeg; i++ {
		for _, e := range ctx.SegmentEdges(s.Segment(i)) {
			g := e.Grade
			if g < 0 || g > 7 {
				g = 0
			}
			grades[g]++
		}
	}
	modalN := 0
	for g, n := range grades {
		// Ascending iteration: strict > keeps the smallest modal grade.
		if n > modalN {
			grade, modalN = roadnet.Grade(g), n
		}
	}
	if modalN == 0 {
		return 0, "", false
	}
	var names map[string]int
	for i := part.FirstSeg; i <= part.LastSeg; i++ {
		for _, e := range ctx.SegmentEdges(s.Segment(i)) {
			if e.Grade != grade || e.Name == "" {
				continue
			}
			if names == nil {
				names = make(map[string]int)
			}
			names[e.Name]++
		}
	}
	bestN := 0
	for nm, n := range names {
		if n > bestN || (n == bestN && nm < name) {
			name, bestN = nm, n
		}
	}
	return grade, name, true
}
