package summarize

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"stmaker/internal/feature"
	"stmaker/internal/geo"
	"stmaker/internal/history"
	"stmaker/internal/landmark"
	"stmaker/internal/partition"
	"stmaker/internal/roadnet"
	"stmaker/internal/traj"
)

var (
	selBase  = geo.Point{Lat: 39.9, Lng: 116.4}
	selStart = time.Date(2013, 11, 2, 9, 0, 0, 0, time.UTC)
)

// movingRegistry holds only moving features, so no road network is needed.
func movingRegistry(t testing.TB) *feature.Registry {
	t.Helper()
	reg := feature.NewRegistry()
	for _, e := range []feature.Extractor{feature.NewSpeed(), feature.NewStayPoints(), feature.NewUTurns()} {
		if err := reg.Register(e); err != nil {
			t.Fatal(err)
		}
	}
	return reg
}

// twoSegTrip builds a two-segment symbolic trajectory travelling east at
// the given speeds (km/h), 1 km per segment, landmarks 0→1→2.
func twoSegTrip(speed1, speed2 float64) *traj.Symbolic {
	r := &traj.Raw{ID: "trip"}
	ts := selStart
	d := 0.0
	appendLeg := func(speed float64, until float64) int {
		step := speed / 3.6 * 5
		for d < until {
			r.Samples = append(r.Samples, traj.Sample{Pt: geo.Destination(selBase, 90, d), T: ts})
			ts = ts.Add(5 * time.Second)
			d += step
		}
		return len(r.Samples) - 1
	}
	appendLeg(speed1, 1000)
	mid := len(r.Samples) - 1
	appendLeg(speed2, 2000)
	r.Samples = append(r.Samples, traj.Sample{Pt: geo.Destination(selBase, 90, 2000), T: ts})
	end := len(r.Samples) - 1
	return &traj.Symbolic{ID: r.ID, Raw: r, Visits: []traj.Visit{
		{Landmark: 0, T: r.Samples[0].T, RawIndex: 0},
		{Landmark: 1, T: r.Samples[mid].T, RawIndex: mid},
		{Landmark: 2, T: r.Samples[end].T, RawIndex: end},
	}}
}

// historyWithSpeeds builds a feature map whose edges 0→1 and 1→2 carry the
// given regular values for the moving registry's three features.
func historyWithSpeeds(speed float64) *history.FeatureMap {
	m := history.NewFeatureMap(3)
	m.Add(0, 1, []float64{speed, 0, 0})
	m.Add(1, 2, []float64{speed, 0, 0})
	return m
}

func TestSelectDeviantSpeed(t *testing.T) {
	reg := movingRegistry(t)
	sel := &Selector{
		Registry:   reg,
		Ctx:        feature.NewContext(nil, nil, nil),
		FeatureMap: historyWithSpeeds(60),
	}
	s := twoSegTrip(30, 30) // half the usual speed
	matrix := reg.ExtractAll(s, sel.Ctx)
	got := sel.SelectForPart(s, partition.Part{FirstSeg: 0, LastSeg: 1}, matrix)
	if len(got) != 1 || got[0].Key != feature.KeySpeed {
		t.Fatalf("selected = %+v, want only Spe", got)
	}
	if math.Abs(got[0].Value-30) > 2 {
		t.Errorf("value = %v, want about 30", got[0].Value)
	}
	if !got[0].HasRegular || math.Abs(got[0].Regular-60) > 1e-9 {
		t.Errorf("regular = %v (has=%v), want 60", got[0].Regular, got[0].HasRegular)
	}
}

func TestSelectNothingWhenRegular(t *testing.T) {
	reg := movingRegistry(t)
	sel := &Selector{
		Registry:   reg,
		Ctx:        feature.NewContext(nil, nil, nil),
		FeatureMap: historyWithSpeeds(60),
	}
	s := twoSegTrip(60, 60)
	matrix := reg.ExtractAll(s, sel.Ctx)
	got := sel.SelectForPart(s, partition.Part{FirstSeg: 0, LastSeg: 1}, matrix)
	if len(got) != 0 {
		t.Fatalf("regular trip selected features: %+v", got)
	}
}

func TestThresholdControlsSelection(t *testing.T) {
	reg := movingRegistry(t)
	mk := func(th float64) *Selector {
		return &Selector{
			Registry:   reg,
			Ctx:        feature.NewContext(nil, nil, nil),
			FeatureMap: historyWithSpeeds(60),
			Threshold:  th,
		}
	}
	s := twoSegTrip(45, 45) // deviation rate = |45-60|/60·... moderate
	matrix := reg.ExtractAll(s, mk(0.2).Ctx)
	loose := mk(0.01).SelectForPart(s, partition.Part{FirstSeg: 0, LastSeg: 1}, matrix)
	strict := mk(0.9).SelectForPart(s, partition.Part{FirstSeg: 0, LastSeg: 1}, matrix)
	if len(loose) == 0 {
		t.Fatal("loose threshold selected nothing")
	}
	if len(strict) != 0 {
		t.Fatalf("strict threshold selected %+v", strict)
	}
}

func TestWeightsBoostSelection(t *testing.T) {
	reg := movingRegistry(t)
	// About 50 vs usual 58: rate ≈ 0.17, below η at weight 1 but well
	// above it at weight 3.
	s := twoSegTrip(50, 50)
	base := &Selector{
		Registry:   reg,
		Ctx:        feature.NewContext(nil, nil, nil),
		FeatureMap: historyWithSpeeds(58),
	}
	matrix := reg.ExtractAll(s, base.Ctx)
	part := partition.Part{FirstSeg: 0, LastSeg: 1}
	if got := base.SelectForPart(s, part, matrix); len(got) != 0 {
		t.Fatalf("weight-1 selection = %+v", got)
	}
	boosted := &Selector{
		Registry:   reg,
		Ctx:        base.Ctx,
		FeatureMap: historyWithSpeeds(58),
		Weights:    feature.Weights{feature.KeySpeed: 3},
	}
	if got := boosted.SelectForPart(s, part, matrix); len(got) != 1 {
		t.Fatalf("weight-3 selection = %+v", got)
	}
}

func TestNoHistoryNoSelection(t *testing.T) {
	reg := movingRegistry(t)
	sel := &Selector{Registry: reg, Ctx: feature.NewContext(nil, nil, nil)}
	s := twoSegTrip(10, 90)
	matrix := reg.ExtractAll(s, sel.Ctx)
	if got := sel.SelectForPart(s, partition.Part{FirstSeg: 0, LastSeg: 1}, matrix); len(got) != 0 {
		t.Fatalf("selection without history = %+v", got)
	}
}

func TestGlobalMeanFallback(t *testing.T) {
	reg := movingRegistry(t)
	// History knows edge 0→1 only; segment 1→2 is novel.
	m := history.NewFeatureMap(3)
	m.Add(0, 1, []float64{60, 0, 0})
	s := twoSegTrip(30, 30)
	matrix := reg.ExtractAll(s, feature.NewContext(nil, nil, nil))
	part := partition.Part{FirstSeg: 0, LastSeg: 1}

	strict := &Selector{Registry: reg, Ctx: feature.NewContext(nil, nil, nil), FeatureMap: m}
	if got := strict.SelectForPart(s, part, matrix); len(got) != 0 {
		t.Fatalf("strict selector should skip partitions with unknown edges, got %+v", got)
	}
	fallback := &Selector{Registry: reg, Ctx: feature.NewContext(nil, nil, nil), FeatureMap: m, GlobalMeanFallback: true}
	if got := fallback.SelectForPart(s, part, matrix); len(got) == 0 {
		t.Fatal("fallback selector should still judge the partition")
	}
}

func TestByProductsAttached(t *testing.T) {
	reg := movingRegistry(t)
	lms := landmark.NewSet([]landmark.Landmark{
		{Name: "Origin", Pt: selBase},
		{Name: "Apex", Pt: geo.Destination(selBase, 90, 800)},
	})
	// Out-and-back trip with a stay at the start: U-turns and stays both
	// deviate from a history of smooth driving.
	r := &traj.Raw{ID: "ub"}
	ts := selStart
	for i := 0; i < 30; i++ { // 150 s stay
		r.Samples = append(r.Samples, traj.Sample{Pt: geo.Destination(selBase, float64(i*31%360), 4), T: ts})
		ts = ts.Add(5 * time.Second)
	}
	for d := 0.0; d <= 800; d += 50 {
		r.Samples = append(r.Samples, traj.Sample{Pt: geo.Destination(selBase, 90, d), T: ts})
		ts = ts.Add(5 * time.Second)
	}
	for d := 750.0; d >= 0; d -= 50 {
		r.Samples = append(r.Samples, traj.Sample{Pt: geo.Destination(selBase, 90, d), T: ts})
		ts = ts.Add(5 * time.Second)
	}
	s := &traj.Symbolic{ID: r.ID, Raw: r, Visits: []traj.Visit{
		{Landmark: 0, T: r.Samples[0].T, RawIndex: 0},
		{Landmark: 1, T: r.Samples[len(r.Samples)-1].T, RawIndex: len(r.Samples) - 1},
	}}
	m := history.NewFeatureMap(3)
	m.Add(0, 1, []float64{40, 0, 0})
	sel := &Selector{
		Registry:   reg,
		Ctx:        feature.NewContext(nil, nil, nil),
		FeatureMap: m,
		Landmarks:  lms,
	}
	matrix := reg.ExtractAll(s, sel.Ctx)
	got := sel.SelectForPart(s, partition.Part{FirstSeg: 0, LastSeg: 0}, matrix)
	var stay, uturn *SelectedFeature
	for i := range got {
		switch got[i].Key {
		case feature.KeyStayPoints:
			stay = &got[i]
		case feature.KeyUTurns:
			uturn = &got[i]
		}
	}
	if stay == nil || len(stay.Stays) == 0 || stay.TotalStay < 100*time.Second {
		t.Fatalf("stay by-products missing: %+v", stay)
	}
	if uturn == nil || len(uturn.UTurns) == 0 {
		t.Fatalf("uturn by-products missing: %+v", uturn)
	}
	if len(uturn.UTurnAt) == 0 || uturn.UTurnAt[0] != "Apex" {
		t.Fatalf("uturn place = %v, want Apex", uturn.UTurnAt)
	}
	// Selected features are sorted by descending rate.
	for i := 1; i < len(got); i++ {
		if got[i].Rate > got[i-1].Rate {
			t.Fatalf("not sorted by rate: %+v", got)
		}
	}
}

func TestRoutingSelectionAgainstPopularRoute(t *testing.T) {
	// World: two parallel roads from A(0) to B(2) — popular via landmark 1
	// on a highway, this trip via landmark 3 on a village road.
	reg := feature.NewRegistry()
	if err := reg.Register(feature.GradeOfRoad{}); err != nil {
		t.Fatal(err)
	}
	// Historical corpus: many trips 0→1→2.
	var corpus []*traj.Symbolic
	mk := func(ids ...int) *traj.Symbolic {
		s := &traj.Symbolic{ID: "h"}
		for i, id := range ids {
			s.Visits = append(s.Visits, traj.Visit{Landmark: id, T: selStart.Add(time.Duration(i) * time.Minute)})
		}
		return s
	}
	for i := 0; i < 5; i++ {
		corpus = append(corpus, mk(0, 1, 2))
	}
	pop := history.BuildPopular(corpus)
	// Feature map: highway (grade 1) on the popular edges, village (6)
	// on the trip's edges.
	m := history.NewFeatureMap(1)
	m.Add(0, 1, []float64{1})
	m.Add(1, 2, []float64{1})
	m.Add(0, 3, []float64{6})
	m.Add(3, 2, []float64{6})

	trip := mk(0, 3, 2)
	matrix := []feature.Vector{{6}, {6}} // this trip's per-segment grades

	sel := &Selector{Registry: reg, Ctx: feature.NewContext(nil, nil, nil), Popular: pop, FeatureMap: m}
	got := sel.SelectForPart(trip, partition.Part{FirstSeg: 0, LastSeg: 1}, matrix)
	if len(got) != 1 || got[0].Key != feature.KeyGradeOfRoad {
		t.Fatalf("selected = %+v, want GR", got)
	}
	if got[0].Value != 6 {
		t.Errorf("value = %v", got[0].Value)
	}
	if !got[0].HasRegular || got[0].Regular != 1 {
		t.Errorf("regular = %v", got[0].Regular)
	}

	// The same trip on the popular route is unremarkable.
	onPopular := mk(0, 1, 2)
	matrix2 := []feature.Vector{{1}, {1}}
	if got := sel.SelectForPart(onPopular, partition.Part{FirstSeg: 0, LastSeg: 1}, matrix2); len(got) != 0 {
		t.Fatalf("popular-route trip selected %+v", got)
	}
}

func TestAggregate(t *testing.T) {
	if _, ok := aggregate(nil, true); ok {
		t.Error("empty aggregate should report not ok")
	}
	if v, _ := aggregate([]float64{10, 20}, true); v != 15 {
		t.Errorf("mean = %v", v)
	}
	if v, _ := aggregate([]float64{1, 2, 2, 3}, false); v != 2 {
		t.Errorf("mode = %v", v)
	}
	// Mode ties break toward the smaller code for determinism.
	if v, _ := aggregate([]float64{2, 1}, false); v != 1 {
		t.Errorf("tie mode = %v", v)
	}
}

func TestRoadForPart(t *testing.T) {
	// One highway edge and one village edge; a trip covering mostly the
	// highway must get the highway's name, not the village lane's.
	g := &roadnet.Graph{}
	a := g.AddNode(selBase, true)
	b := g.AddNode(geo.Destination(selBase, 90, 2000), true)
	c := g.AddNode(geo.Destination(selBase, 90, 2400), true)
	if _, err := g.AddEdge(a, b, "G6", roadnet.GradeHighway, 0, roadnet.TwoWay, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := g.AddEdge(b, c, "Lane", roadnet.GradeVillage, 0, roadnet.TwoWay, nil); err != nil {
		t.Fatal(err)
	}
	ctx := feature.NewContext(g, roadnet.NewMatcher(g), nil)

	r := &traj.Raw{ID: "rp"}
	ts := selStart
	for d := 0.0; d <= 2400; d += 100 {
		r.Samples = append(r.Samples, traj.Sample{Pt: geo.Destination(selBase, 90, d), T: ts})
		ts = ts.Add(5 * time.Second)
	}
	s := &traj.Symbolic{ID: r.ID, Raw: r, Visits: []traj.Visit{
		{Landmark: 0, T: r.Start(), RawIndex: 0},
		{Landmark: 1, T: r.End(), RawIndex: len(r.Samples) - 1},
	}}
	grade, name, ok := RoadForPart(ctx, s, partition.Part{FirstSeg: 0, LastSeg: 0})
	if !ok || grade != roadnet.GradeHighway || name != "G6" {
		t.Fatalf("RoadForPart = %v %q ok=%v", grade, name, ok)
	}

	// Unmatchable trip reports not-ok.
	far := &traj.Raw{ID: "far"}
	p := geo.Destination(selBase, 180, 9000)
	for i := 0; i < 3; i++ {
		far.Samples = append(far.Samples, traj.Sample{Pt: geo.Destination(p, 90, float64(i)*50), T: selStart.Add(time.Duration(i) * 5 * time.Second)})
	}
	fs := &traj.Symbolic{ID: far.ID, Raw: far, Visits: []traj.Visit{
		{Landmark: 0, T: far.Start(), RawIndex: 0},
		{Landmark: 1, T: far.End(), RawIndex: 2},
	}}
	if _, _, ok := RoadForPart(ctx, fs, partition.Part{FirstSeg: 0, LastSeg: 0}); ok {
		t.Fatal("unmatchable partition reported a road")
	}
}

func TestStayPlacesAttached(t *testing.T) {
	reg := movingRegistry(t)
	lms := landmark.NewSet([]landmark.Landmark{
		{Name: "Origin", Pt: selBase},
		{Name: "End", Pt: geo.Destination(selBase, 90, 900)},
	})
	r := &traj.Raw{ID: "sp"}
	ts := selStart
	for i := 0; i < 30; i++ { // 150s stay at the origin
		r.Samples = append(r.Samples, traj.Sample{Pt: geo.Destination(selBase, float64(i*37%360), 4), T: ts})
		ts = ts.Add(5 * time.Second)
	}
	for d := 0.0; d <= 900; d += 50 {
		r.Samples = append(r.Samples, traj.Sample{Pt: geo.Destination(selBase, 90, d), T: ts})
		ts = ts.Add(5 * time.Second)
	}
	s := &traj.Symbolic{ID: r.ID, Raw: r, Visits: []traj.Visit{
		{Landmark: 0, T: r.Samples[0].T, RawIndex: 0},
		{Landmark: 1, T: r.Samples[len(r.Samples)-1].T, RawIndex: len(r.Samples) - 1},
	}}
	m := history.NewFeatureMap(3)
	m.Add(0, 1, []float64{40, 0, 0})
	sel := &Selector{Registry: reg, Ctx: feature.NewContext(nil, nil, nil), FeatureMap: m, Landmarks: lms}
	matrix := reg.ExtractAll(s, sel.Ctx)
	got := sel.SelectForPart(s, partition.Part{FirstSeg: 0, LastSeg: 0}, matrix)
	for _, f := range got {
		if f.Key == feature.KeyStayPoints {
			if len(f.StayAt) == 0 || f.StayAt[0] != "Origin" {
				t.Fatalf("stay place = %v, want Origin", f.StayAt)
			}
			return
		}
	}
	t.Fatal("stay feature not selected")
}

// TestCustomDetectorThresholdsReachByProducts registers StayPoints and
// UTurns as pointers with non-default thresholds. The stays and U-turns
// the selector attaches must be exactly the ones extraction counted with
// those thresholds, not a re-detection with the defaults.
func TestCustomDetectorThresholdsReachByProducts(t *testing.T) {
	stays := &feature.StayPoints{MaxRadiusMeters: 200, MinDuration: 30 * time.Second}
	uturns := &feature.UTurns{MinHeadingChangeDeg: 100, MinLegMeters: 30}
	reg := feature.NewRegistry()
	for _, e := range []feature.Extractor{feature.NewSpeed(), stays, uturns} {
		if err := reg.Register(e); err != nil {
			t.Fatal(err)
		}
	}
	// Ten rounds over two segments: circle a spot 70 m out for 45 s
	// (stays for the 200 m / 30 s detector, none for the default one),
	// then zigzag at 120° (U-turns for the 100° detector only), then
	// drive on 1 km east.
	r := &traj.Raw{ID: "custom"}
	ts := selStart
	p := selBase
	add := func(q geo.Point, dt time.Duration) {
		r.Samples = append(r.Samples, traj.Sample{Pt: q, T: ts})
		ts, p = ts.Add(dt), q
	}
	var cuts []int
	for round := 0; round < 10; round++ {
		if round%5 == 0 {
			cuts = append(cuts, len(r.Samples))
		}
		spot := p
		for k := 0; k < 10; k++ {
			add(geo.Destination(spot, float64(20*k), 70), 5*time.Second)
		}
		add(geo.Destination(p, 90, 100), 10*time.Second)
		add(geo.Destination(p, 210, 100), 10*time.Second)
		add(geo.Destination(p, 90, 100), 10*time.Second)
		for d := 0; d < 10; d++ {
			add(geo.Destination(p, 90, 100), 10*time.Second)
		}
	}
	add(geo.Destination(p, 90, 100), 10*time.Second)
	cuts = append(cuts, len(r.Samples)-1)
	s := &traj.Symbolic{ID: r.ID, Raw: r}
	for i, c := range cuts {
		s.Visits = append(s.Visits, traj.Visit{Landmark: i, T: r.Samples[c].T, RawIndex: c})
	}
	if n := len(feature.NewStayPoints().Detect(r.Samples)); n != 0 {
		t.Fatalf("fixture: default thresholds find %d stays, want 0", n)
	}
	if n, m := len(feature.NewUTurns().Detect(r.Samples)), len(uturns.Detect(r.Samples)); n >= m {
		t.Fatalf("fixture: default thresholds find %d U-turns, custom %d", n, m)
	}

	lms := landmark.NewSet([]landmark.Landmark{{Name: "Start", Pt: selBase}})
	m := history.NewFeatureMap(3)
	m.Add(0, 1, []float64{40, 0, 0})
	m.Add(1, 2, []float64{40, 0, 0})
	sel := &Selector{Registry: reg, Ctx: feature.NewContext(nil, nil, lms), FeatureMap: m, Landmarks: lms}
	matrix := reg.ExtractAll(s, sel.Ctx)
	part := partition.Part{FirstSeg: 0, LastSeg: 1}
	var wantStays, wantTurns int
	for i := part.FirstSeg; i <= part.LastSeg; i++ {
		wantStays += int(matrix[i][1])
		wantTurns += int(matrix[i][2])
	}
	if wantStays < 5 || wantTurns < 5 {
		t.Fatalf("fixture: extraction counted %d stays, %d U-turns", wantStays, wantTurns)
	}
	var gotStays, gotTurns *SelectedFeature
	got := sel.SelectForPart(s, part, matrix)
	for i := range got {
		switch got[i].Key {
		case feature.KeyStayPoints:
			gotStays = &got[i]
		case feature.KeyUTurns:
			gotTurns = &got[i]
		}
	}
	if gotStays == nil || gotTurns == nil {
		t.Fatalf("stay and U-turn features not both selected: %+v", got)
	}
	if len(gotStays.Stays) != wantStays || len(gotStays.StayAt) != wantStays {
		t.Fatalf("%d stays, %d names attached; extraction counted %d", len(gotStays.Stays), len(gotStays.StayAt), wantStays)
	}
	if len(gotTurns.UTurns) != wantTurns || len(gotTurns.UTurnAt) != wantTurns {
		t.Fatalf("%d U-turns, %d names attached; extraction counted %d", len(gotTurns.UTurns), len(gotTurns.UTurnAt), wantTurns)
	}
	if gotStays.StayAt[0] != "Start" {
		t.Fatalf("first stay named %q, want Start", gotStays.StayAt[0])
	}
}

// BenchmarkSelectForPart runs §V selection over a sparsely sampled trip
// (one landmark visit per 30 s fix) against a feature map of 1500
// transitions, where half the trip's transitions and most popular-route
// hops are novel, so every partition leans on the global-mean fallback.
func BenchmarkSelectForPart(b *testing.B) {
	reg := movingRegistry(b)
	if err := reg.Register(feature.GradeOfRoad{}); err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	const visits = 49
	r := &traj.Raw{ID: "sparse"}
	sym := &traj.Symbolic{ID: r.ID, Raw: r}
	for i := 0; i < visits; i++ {
		r.Samples = append(r.Samples, traj.Sample{
			Pt: geo.Destination(selBase, 90, float64(i)*333),
			T:  selStart.Add(time.Duration(i) * 30 * time.Second),
		})
		sym.Visits = append(sym.Visits, traj.Visit{Landmark: 3 * i, T: r.Samples[i].T, RawIndex: i})
	}
	m := history.NewFeatureMap(reg.Len())
	m.MarkCategorical(reg.IndexOf(feature.KeyGradeOfRoad))
	row := func() []float64 {
		return []float64{20 + 40*rng.Float64(), float64(rng.Intn(2)), float64(rng.Intn(2)), float64(1 + rng.Intn(7))}
	}
	for i := 0; i+1 < visits; i += 2 {
		m.Add(3*i, 3*(i+1), row())
	}
	for m.NumEdges() < 1500 {
		m.Add(rng.Intn(4000), rng.Intn(4000), row())
	}
	var seqs [][]int
	for i := 0; i+8 < visits; i += 8 {
		seqs = append(seqs, []int{3 * i, 5000 + i, 5001 + i, 3 * (i + 8)})
	}
	pop := history.BuildPopularFromSequences(seqs)
	matrix := make([]feature.Vector, visits-1)
	for i := range matrix {
		matrix[i] = row()
	}
	var parts []partition.Part
	for i := 0; i+8 < visits; i += 8 {
		parts = append(parts, partition.Part{FirstSeg: i, LastSeg: i + 7})
	}
	m.Warm()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sel := &Selector{Registry: reg, Popular: pop, FeatureMap: m, GlobalMeanFallback: true}
		for _, part := range parts {
			sel.SelectForPart(sym, part, matrix)
		}
	}
}
