package summarize

import (
	"sort"
	"time"

	"stmaker/internal/feature"
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
	// Registry and Ctx must match those used for feature extraction.
	Registry *feature.Registry
	Ctx      *feature.Context
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
// (stay locations and durations, U-turn places, road names — §VI-A).
func (sel *Selector) attachByProducts(sf *SelectedFeature, s *traj.Symbolic, part partition.Part) {
	switch sf.Key {
	case feature.KeyStayPoints:
		sp := stayDetector(sel.Registry)
		for i := part.FirstSeg; i <= part.LastSeg; i++ {
			sf.Stays = append(sf.Stays, sp.Detect(s.Segment(i).RawSamples())...)
		}
		for _, st := range sf.Stays {
			sf.TotalStay += st.Duration
			name := ""
			if sel.Landmarks != nil {
				if lm, ok := sel.Landmarks.Nearest(st.Center, 500); ok {
					name = lm.Name
				}
			}
			sf.StayAt = append(sf.StayAt, name)
		}
	case feature.KeyUTurns:
		ut := uturnDetector(sel.Registry)
		for i := part.FirstSeg; i <= part.LastSeg; i++ {
			sf.UTurns = append(sf.UTurns, ut.Detect(s.Segment(i).RawSamples())...)
		}
		for _, u := range sf.UTurns {
			name := ""
			if sel.Landmarks != nil {
				if lm, ok := sel.Landmarks.Nearest(u.At, 500); ok {
					name = lm.Name
				}
			}
			sf.UTurnAt = append(sf.UTurnAt, name)
		}
	case feature.KeyGradeOfRoad:
		if sel.Ctx != nil {
			sf.RoadName = RoadNameForPart(sel.Ctx, s, part)
		}
	}
}

// stayDetector returns the registered StayPoints extractor (to honour its
// configured thresholds), or a default one.
func stayDetector(reg *feature.Registry) feature.StayPoints {
	if i := reg.IndexOf(feature.KeyStayPoints); i >= 0 {
		if sp, ok := extractorAt(reg, i).(feature.StayPoints); ok {
			return sp
		}
	}
	return feature.NewStayPoints()
}

// uturnDetector returns the registered UTurns extractor, or a default one.
func uturnDetector(reg *feature.Registry) feature.UTurns {
	if i := reg.IndexOf(feature.KeyUTurns); i >= 0 {
		if ut, ok := extractorAt(reg, i).(feature.UTurns); ok {
			return ut
		}
	}
	return feature.NewUTurns()
}

// extractorAt indirects through Descriptors order; the registry does not
// expose extractors directly, so re-extraction uses defaults for the two
// detail-producing features unless type assertion succeeds.
func extractorAt(reg *feature.Registry, i int) feature.Extractor {
	return reg.ExtractorAt(i)
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

// RoadNameForPart returns only the name component of RoadForPart; it
// remains for callers that already know the grade.
func RoadNameForPart(ctx *feature.Context, s *traj.Symbolic, part partition.Part) string {
	_, name, _ := RoadForPart(ctx, s, part)
	return name
}

// DominantGrade returns the modal road grade of the partition from the
// feature matrix, for the sentence templates' "through road type" slot.
func DominantGrade(reg *feature.Registry, matrix []feature.Vector, part partition.Part) (roadnet.Grade, bool) {
	j := reg.IndexOf(feature.KeyGradeOfRoad)
	if j < 0 {
		return 0, false
	}
	// Grade codes are 1–7 (roadnet.Grade.Valid), so the count fits a
	// fixed array; this runs per partition on the render path.
	var counts [8]int
	for i := part.FirstSeg; i <= part.LastSeg && i < len(matrix); i++ {
		if g := int(matrix[i][j]); g >= 1 && g <= 7 {
			counts[g]++
		}
	}
	best, bestN := 0, 0
	for g, n := range counts {
		// Ascending iteration: strict > keeps the smallest modal grade.
		if n > bestN {
			best, bestN = g, n
		}
	}
	if bestN == 0 {
		return 0, false
	}
	return roadnet.Grade(best), true
}

// TotalDuration sums the durations of the partition's segments.
func TotalDuration(s *traj.Symbolic, part partition.Part) time.Duration {
	var d time.Duration
	for i := part.FirstSeg; i <= part.LastSeg; i++ {
		d += s.Segment(i).Duration()
	}
	return d
}
