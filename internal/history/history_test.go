package history

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"stmaker/internal/feature"
	"stmaker/internal/geo"
	"stmaker/internal/traj"
)

// sym builds a symbolic trajectory over the given landmark sequence with no
// raw backing (sufficient for route mining).
func sym(ids ...int) *traj.Symbolic {
	s := &traj.Symbolic{ID: "h"}
	t0 := time.Date(2013, 11, 2, 9, 0, 0, 0, time.UTC)
	for i, id := range ids {
		s.Visits = append(s.Visits, traj.Visit{Landmark: id, T: t0.Add(time.Duration(i) * time.Minute), RawIndex: i})
	}
	return s
}

func TestPopularRoutePrefersFrequentPath(t *testing.T) {
	// 0→1→3 travelled 8 times, 0→2→3 travelled 2 times.
	var corpus []*traj.Symbolic
	for i := 0; i < 8; i++ {
		corpus = append(corpus, sym(0, 1, 3))
	}
	for i := 0; i < 2; i++ {
		corpus = append(corpus, sym(0, 2, 3))
	}
	p := BuildPopular(corpus)
	route, ok := p.Route(0, 3)
	if !ok {
		t.Fatal("route not found")
	}
	want := []int{0, 1, 3}
	if len(route) != 3 || route[0] != want[0] || route[1] != want[1] || route[2] != want[2] {
		t.Fatalf("route = %v, want %v", route, want)
	}
	if p.TransitionCount(0, 1) != 8 || p.TransitionCount(0, 2) != 2 {
		t.Fatalf("counts: %d, %d", p.TransitionCount(0, 1), p.TransitionCount(0, 2))
	}
}

func TestPopularRouteMultiHop(t *testing.T) {
	corpus := []*traj.Symbolic{
		sym(0, 1), sym(1, 2), sym(2, 3),
	}
	p := BuildPopular(corpus)
	route, ok := p.Route(0, 3)
	if !ok {
		t.Fatal("multi-hop route not found")
	}
	if len(route) != 4 {
		t.Fatalf("route = %v", route)
	}
}

func TestPopularRouteUnreachable(t *testing.T) {
	p := BuildPopular([]*traj.Symbolic{sym(0, 1)})
	if _, ok := p.Route(1, 0); ok {
		t.Fatal("reverse route should be unreachable")
	}
	if _, ok := p.Route(5, 6); ok {
		t.Fatal("unknown landmarks should be unreachable")
	}
}

func TestPopularRouteSameLandmark(t *testing.T) {
	p := BuildPopular(nil)
	route, ok := p.Route(4, 4)
	if !ok || len(route) != 1 || route[0] != 4 {
		t.Fatalf("self route = %v ok=%v", route, ok)
	}
}

func TestPopularIgnoresSelfLoops(t *testing.T) {
	p := BuildPopular([]*traj.Symbolic{sym(0, 0, 1)})
	if p.TransitionCount(0, 0) != 0 {
		t.Fatal("self transition should be ignored")
	}
	if p.TransitionCount(0, 1) != 1 {
		t.Fatal("real transition lost")
	}
}

func TestPopularityBeatsHopCount(t *testing.T) {
	// Direct 0→3 exists but is rare (1 visit out of 11 leaving 0); the
	// detour 0→1→3 is near-certain at every hop. The max-likelihood route
	// takes the detour: -log(10/11)-log(1) < -log(1/11).
	var corpus []*traj.Symbolic
	corpus = append(corpus, sym(0, 3))
	for i := 0; i < 10; i++ {
		corpus = append(corpus, sym(0, 1, 3))
	}
	p := BuildPopular(corpus)
	route, _ := p.Route(0, 3)
	if len(route) != 3 || route[1] != 1 {
		t.Fatalf("route = %v, want detour through 1", route)
	}
}

func TestFeatureMapRegular(t *testing.T) {
	m := NewFeatureMap(2)
	m.Add(0, 1, []float64{10, 1})
	m.Add(0, 1, []float64{20, 3})
	m.Add(1, 2, []float64{50, 0})
	if m.Dims() != 2 || m.NumEdges() != 2 {
		t.Fatalf("dims=%d edges=%d", m.Dims(), m.NumEdges())
	}
	r, ok := m.Regular(0, 1)
	if !ok || math.Abs(r[0]-15) > 1e-9 || math.Abs(r[1]-2) > 1e-9 {
		t.Fatalf("regular = %v ok=%v", r, ok)
	}
	if !m.HasEdge(1, 2) || m.HasEdge(2, 1) {
		t.Fatal("HasEdge wrong")
	}
	if _, ok := m.Regular(9, 9); ok {
		t.Fatal("unknown edge should have no regular value")
	}
	// Wrong dimensionality is ignored.
	m.Add(0, 1, []float64{1})
	r2, _ := m.Regular(0, 1)
	if math.Abs(r2[0]-15) > 1e-9 {
		t.Fatal("bad-dims Add should be ignored")
	}
}

func TestFeatureMapGlobalMean(t *testing.T) {
	m := NewFeatureMap(1)
	m.Add(0, 1, []float64{10})
	m.Add(0, 1, []float64{20})
	m.Add(1, 2, []float64{60})
	mean := m.GlobalMean()
	if math.Abs(mean[0]-30) > 1e-9 {
		t.Fatalf("global mean = %v, want 30", mean)
	}
	empty := NewFeatureMap(3)
	for _, x := range empty.GlobalMean() {
		if x != 0 {
			t.Fatal("empty global mean should be zero")
		}
	}
}

func TestBuildFeatureMapFromCorpus(t *testing.T) {
	// Registry with only the speed feature so no road network is needed.
	reg := feature.NewRegistry()
	if err := reg.Register(feature.NewSpeed()); err != nil {
		t.Fatal(err)
	}
	base := geo.Point{Lat: 39.9, Lng: 116.4}
	t0 := time.Date(2013, 11, 2, 9, 0, 0, 0, time.UTC)
	mk := func(speedKmh float64) *traj.Symbolic {
		r := &traj.Raw{ID: "x"}
		step := speedKmh / 3.6 * 10
		for i := 0; i < 5; i++ {
			r.Samples = append(r.Samples, traj.Sample{
				Pt: geo.Destination(base, 90, float64(i)*step),
				T:  t0.Add(time.Duration(i*10) * time.Second),
			})
		}
		return &traj.Symbolic{ID: "x", Raw: r, Visits: []traj.Visit{
			{Landmark: 0, T: r.Start(), RawIndex: 0},
			{Landmark: 1, T: r.End(), RawIndex: 4},
		}}
	}
	corpus := []*traj.Symbolic{mk(30), mk(60)}
	ctx := feature.NewContext(nil, nil, nil)
	m := BuildFeatureMap(corpus, reg, ctx)
	r, ok := m.Regular(0, 1)
	if !ok {
		t.Fatal("edge 0→1 missing")
	}
	if math.Abs(r[0]-45) > 2 {
		t.Fatalf("regular speed = %v, want about 45", r[0])
	}
}

func TestCategoricalAggregation(t *testing.T) {
	m := NewFeatureMap(2)
	m.MarkCategorical(0)
	// Grades 2,2,3 on one edge: mode 2; mean of dim 1 = 20.
	m.Add(0, 1, []float64{2, 10})
	m.Add(0, 1, []float64{2, 20})
	m.Add(0, 1, []float64{3, 30})
	r, ok := m.Regular(0, 1)
	if !ok {
		t.Fatal("edge missing")
	}
	if r[0] != 2 {
		t.Fatalf("categorical regular = %v, want mode 2", r[0])
	}
	if math.Abs(r[1]-20) > 1e-9 {
		t.Fatalf("numeric regular = %v, want mean 20", r[1])
	}
	// Global regular: categorical dim is the corpus-wide mode.
	m.Add(1, 2, []float64{3, 0})
	m.Add(1, 2, []float64{3, 0})
	g := m.GlobalMean()
	if g[0] != 3 && g[0] != 2 {
		t.Fatalf("global categorical = %v, want a real category", g[0])
	}
	// With counts 2×grade-2, 3×grade-3, the mode is 3.
	if g[0] != 3 {
		t.Fatalf("global mode = %v, want 3", g[0])
	}
}

func TestFlattened(t *testing.T) {
	m := NewFeatureMap(2)
	m.MarkCategorical(0)
	m.Add(0, 1, []float64{2, 10})
	m.Add(1, 2, []float64{6, 50})
	flat := m.Flattened()
	if flat.NumEdges() != 2 {
		t.Fatalf("flattened edges = %d", flat.NumEdges())
	}
	r01, _ := flat.Regular(0, 1)
	r12, _ := flat.Regular(1, 2)
	for j := range r01 {
		if r01[j] != r12[j] {
			t.Fatalf("flattened regulars differ: %v vs %v", r01, r12)
		}
	}
	if math.Abs(r01[1]-30) > 1e-9 {
		t.Fatalf("flattened numeric = %v, want corpus mean 30", r01[1])
	}
	if r01[0] != 2 && r01[0] != 6 {
		t.Fatalf("flattened categorical = %v, want a real category", r01[0])
	}
	// The original map is untouched.
	orig, _ := m.Regular(0, 1)
	if orig[1] != 10 {
		t.Fatal("Flattened mutated the source map")
	}
}

func TestRouteCaching(t *testing.T) {
	p := BuildPopular([]*traj.Symbolic{sym(0, 1, 2), sym(0, 1, 2)})
	r1, ok1 := p.Route(0, 2)
	r2, ok2 := p.Route(0, 2)
	if !ok1 || !ok2 || len(r1) != len(r2) {
		t.Fatalf("cached route differs: %v vs %v", r1, r2)
	}
	// Negative results are cached too.
	if _, ok := p.Route(2, 0); ok {
		t.Fatal("reverse should be unreachable")
	}
	if _, ok := p.Route(2, 0); ok {
		t.Fatal("cached reverse should stay unreachable")
	}
}

func TestFrequentSubroutePrefersShorterOnTies(t *testing.T) {
	// One observation each of 0→1→3 and 0→3: tie on frequency, the
	// shorter route wins.
	p := BuildPopular([]*traj.Symbolic{sym(0, 1, 3), sym(5, 0, 3, 6)})
	route, ok := p.Route(0, 3)
	if !ok || len(route) != 2 {
		t.Fatalf("route = %v, want the direct pair", route)
	}
}

// TestPopularSequencesRoundTrip proves the sequences are the complete
// state of the popular-route knowledge: rebuilding from them answers
// every route identically — the contract model persistence relies on.
func TestPopularSequencesRoundTrip(t *testing.T) {
	p := BuildPopular([]*traj.Symbolic{sym(0, 1, 2, 3), sym(0, 2, 3), sym(0, 2, 3), sym(4, 0)})
	seqs := p.Sequences()
	q := BuildPopularFromSequences(seqs)
	// Mutating the exported sequences must not touch either knowledge.
	seqs[0][0] = 99
	for a := 0; a < 5; a++ {
		for b := 0; b < 5; b++ {
			pr, pok := p.Route(a, b)
			qr, qok := q.Route(a, b)
			if pok != qok {
				t.Fatalf("route %d->%d: ok %v vs %v", a, b, pok, qok)
			}
			if fmt.Sprint(pr) != fmt.Sprint(qr) {
				t.Fatalf("route %d->%d: %v vs %v", a, b, pr, qr)
			}
			if p.TransitionCount(a, b) != q.TransitionCount(a, b) {
				t.Fatalf("transition count %d->%d differs", a, b)
			}
		}
	}
}

// randomFeatureMap builds a map of the given number of random
// transitions over four dimensions, 0 and 2 categorical (codes 1–7), 1
// and 3 numeric with values spread over several magnitudes, so that sums
// taken in different orders round differently.
func randomFeatureMap(seed int64, edges int) *FeatureMap {
	rng := rand.New(rand.NewSource(seed))
	m := NewFeatureMap(4)
	m.MarkCategorical(0)
	m.MarkCategorical(2)
	for m.NumEdges() < edges {
		a, b := rng.Intn(4*edges), rng.Intn(4*edges)
		for k := 1 + rng.Intn(4); k > 0; k-- {
			m.Add(a, b, []float64{
				float64(1 + rng.Intn(7)),
				rng.Float64() * math.Pow(10, float64(rng.Intn(6))),
				float64(1 + rng.Intn(7)),
				rng.NormFloat64() / 3,
			})
		}
	}
	return m
}

// sameBits reports whether two vectors are bit-for-bit equal.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for j := range a {
		if math.Float64bits(a[j]) != math.Float64bits(b[j]) {
			return false
		}
	}
	return true
}

// TestFeatureMapAggregateRoundTrip proves exporting every edge aggregate
// and re-adding it to an empty map reproduces Regular and GlobalMean
// bit-for-bit (sums are transported, not recomputed).
func TestFeatureMapAggregateRoundTrip(t *testing.T) {
	m := randomFeatureMap(1, 600)

	out := NewFeatureMap(m.Dims())
	for j, c := range m.CategoricalDims() {
		if c {
			out.MarkCategorical(j)
		}
	}
	for _, e := range m.EdgesSorted() {
		n, sums, cats, ok := m.Aggregate(e[0], e[1])
		if !ok {
			t.Fatalf("edge %v vanished", e)
		}
		if err := out.AddAggregate(e[0], e[1], n, sums, cats); err != nil {
			t.Fatal(err)
		}
	}
	if out.NumEdges() != m.NumEdges() {
		t.Fatalf("edges = %d, want %d", out.NumEdges(), m.NumEdges())
	}
	for _, e := range m.EdgesSorted() {
		want, _ := m.Regular(e[0], e[1])
		got, ok := out.Regular(e[0], e[1])
		if !ok {
			t.Fatalf("edge %v missing after round trip", e)
		}
		if !sameBits(got, want) {
			t.Fatalf("edge %v: %v != %v", e, got, want)
		}
	}
	if gw, gg := m.GlobalMean(), out.GlobalMean(); !sameBits(gw, gg) {
		t.Fatalf("global mean: %v != %v", gg, gw)
	}
}

// TestGlobalMeanDeterministic pins the global regular vector to the
// aggregates alone: repeated calls, clones (whose Go maps iterate in a
// different order) and a map filled in the opposite edge order all give
// the same bits.
func TestGlobalMeanDeterministic(t *testing.T) {
	m := randomFeatureMap(2, 1500)
	want := append([]float64(nil), m.GlobalMean()...)
	for i := 0; i < 200; i++ {
		if got := m.GlobalMean(); !sameBits(got, want) {
			t.Fatalf("call %d: %v != %v", i, got, want)
		}
	}
	for i := 0; i < 20; i++ {
		if got := m.Clone().GlobalMean(); !sameBits(got, want) {
			t.Fatalf("clone %d: %v != %v", i, got, want)
		}
	}
	edges := m.EdgesSorted()
	rev := NewFeatureMap(m.Dims())
	rev.MarkCategorical(0)
	rev.MarkCategorical(2)
	for i := len(edges) - 1; i >= 0; i-- {
		n, sums, cats, _ := m.Aggregate(edges[i][0], edges[i][1])
		if err := rev.AddAggregate(edges[i][0], edges[i][1], n, sums, cats); err != nil {
			t.Fatal(err)
		}
	}
	if got := rev.GlobalMean(); !sameBits(got, want) {
		t.Fatalf("reverse-filled map: %v != %v", got, want)
	}
}

// TestFeatureMapWritesInvalidateReads proves a read after Add or
// AddAggregate sees the write, and that vectors handed out before the
// write keep their values: they may be held by a published model.
func TestFeatureMapWritesInvalidateReads(t *testing.T) {
	m := NewFeatureMap(1)
	m.Add(0, 1, []float64{10})
	r0, _ := m.Regular(0, 1)
	g0 := m.GlobalMean()

	m.Add(0, 1, []float64{20})
	if r, _ := m.Regular(0, 1); r[0] != 15 {
		t.Fatalf("regular after Add = %v, want 15", r[0])
	}
	if _, ok := m.Regular(1, 2); ok {
		t.Fatal("edge 1→2 known before it was added")
	}
	if err := m.AddAggregate(1, 2, 2, []float64{120}, nil); err != nil {
		t.Fatal(err)
	}
	if r, ok := m.Regular(1, 2); !ok || r[0] != 60 {
		t.Fatalf("regular after AddAggregate = %v (ok %v), want 60", r, ok)
	}
	if g := m.GlobalMean(); g[0] != 37.5 {
		t.Fatalf("global mean = %v, want 37.5", g[0])
	}
	if r0[0] != 10 || g0[0] != 10 {
		t.Fatalf("earlier reads changed to %v and %v, want 10", r0[0], g0[0])
	}
}

// TestFeatureMapReadsDoNotAllocate pins the serving reads to shared
// model memory.
func TestFeatureMapReadsDoNotAllocate(t *testing.T) {
	m := randomFeatureMap(3, 500)
	e := m.EdgesSorted()[17]
	m.Warm()
	if n := testing.AllocsPerRun(100, func() { m.Regular(e[0], e[1]) }); n != 0 {
		t.Errorf("Regular allocates %v times per call", n)
	}
	if n := testing.AllocsPerRun(100, func() { m.GlobalMean() }); n != 0 {
		t.Errorf("GlobalMean allocates %v times per call", n)
	}
}

// BenchmarkGlobalMean measures the fallback read for a transition the
// corpus never travelled, on a map about the size of the 16×16
// benchmark city's.
func BenchmarkGlobalMean(b *testing.B) {
	m := randomFeatureMap(4, 1500)
	m.Warm()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.GlobalMean()
	}
}

// TestAddAggregateRejectsMismatch pins the strictness of the load path.
func TestAddAggregateRejectsMismatch(t *testing.T) {
	m := NewFeatureMap(2)
	if err := m.AddAggregate(0, 1, 1, []float64{1}, nil); err == nil {
		t.Error("wrong dims accepted")
	}
	if err := m.AddAggregate(0, 1, 0, []float64{1, 2}, nil); err == nil {
		t.Error("zero count accepted")
	}
	if err := m.AddAggregate(0, 1, 1, []float64{1, 2}, make([]map[float64]int, 3)); err == nil {
		t.Error("wrong cats dims accepted")
	}
	if m.NumEdges() != 0 {
		t.Error("failed AddAggregate mutated the map")
	}
}
