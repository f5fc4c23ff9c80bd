package stmaker

import (
	"bytes"
	"fmt"
	"math"
	"sync"
	"testing"

	"stmaker/internal/history"
	"stmaker/internal/simulate"
	"stmaker/internal/summarize"
	"stmaker/internal/traj"
)

// featureMapSnapshot copies a feature map's global regular vector and
// every edge's regular vector out of model memory.
func featureMapSnapshot(fm *history.FeatureMap) (global []float64, regular map[[2]int][]float64) {
	regular = make(map[[2]int][]float64)
	for _, e := range fm.EdgesSorted() {
		r, _ := fm.Regular(e[0], e[1])
		regular[e] = append([]float64(nil), r...)
	}
	return append([]float64(nil), fm.GlobalMean()...), regular
}

// sameFeatureMapBits reports the first difference between two snapshots,
// comparing every value bit for bit; "" when they are identical.
func sameFeatureMapBits(g1 []float64, r1 map[[2]int][]float64, g2 []float64, r2 map[[2]int][]float64) string {
	bitsEqual := func(a, b []float64) bool {
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
	if !bitsEqual(g1, g2) {
		return fmt.Sprintf("global mean %v != %v", g1, g2)
	}
	if len(r1) != len(r2) {
		return fmt.Sprintf("%d edges != %d edges", len(r1), len(r2))
	}
	for e, r := range r1 {
		if !bitsEqual(r, r2[e]) {
			return fmt.Sprintf("edge %v: %v != %v", e, r, r2[e])
		}
	}
	return ""
}

// calibratedFleet calibrates a calm fleet against the summarizer's map,
// dropping the trips that do not calibrate.
func calibratedFleet(t *testing.T, city *simulate.City, s *Summarizer, n int, seed int64) []*traj.Symbolic {
	t.Helper()
	var out []*traj.Symbolic
	for _, tr := range simulate.GenerateFleet(city, simulate.FleetOptions{NumTrips: n, Seed: seed, FixedHour: -1, Calm: true}) {
		if sym, err := s.Calibrate(tr.Raw); err == nil {
			out = append(out, sym)
		}
	}
	if len(out) < n/2 {
		t.Fatalf("only %d/%d trips calibrated", len(out), n)
	}
	return out
}

// TestModelRoundTripFeatureMapBits proves a saved and reloaded model
// serves the same regular vectors, global one included, bit for bit.
func TestModelRoundTripFeatureMapBits(t *testing.T) {
	_, s := newWorld(t, nil)
	var file bytes.Buffer
	if _, err := s.Model().WriteTo(&file); err != nil {
		t.Fatal(err)
	}
	m, err := ReadModelFrom(&file)
	if err != nil {
		t.Fatal(err)
	}
	g1, r1 := featureMapSnapshot(s.FeatureMap())
	g2, r2 := featureMapSnapshot(m.FeatureMap())
	if diff := sameFeatureMapBits(g1, r1, g2, r2); diff != "" {
		t.Fatal(diff)
	}
}

// TestIncrementalModelFeatureMapFollowsFolds drives the ingest path:
// trips folded into an accumulator after a model was built from it show
// up in the next model's regular vectors, exactly as in a model built
// from all the trips at once, while the published model keeps serving
// what it was built with.
func TestIncrementalModelFeatureMapFollowsFolds(t *testing.T) {
	city, s := newWorld(t, nil)
	first := calibratedFleet(t, city, s, 30, 91)
	more := calibratedFleet(t, city, s, 30, 92)

	acc, err := s.NewHistoryAccumulator(nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, sym := range first {
		s.AccumulateHistory(acc, sym)
	}
	if err := s.LoadModel(s.BuildIncrementalModel(acc.Clone())); err != nil {
		t.Fatal(err)
	}
	published := s.FeatureMap()
	g1, r1 := featureMapSnapshot(published)

	next := acc.Clone()
	// Derive the view before the folds, so they have to invalidate it.
	next.featMap.Warm()
	for _, sym := range more {
		s.AccumulateHistory(next, sym)
	}
	g2, r2 := featureMapSnapshot(s.BuildIncrementalModel(next).FeatureMap())

	ref, err := s.NewHistoryAccumulator(nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, sym := range append(append([]*traj.Symbolic(nil), first...), more...) {
		s.AccumulateHistory(ref, sym)
	}
	gRef, rRef := featureMapSnapshot(ref.featMap)
	if diff := sameFeatureMapBits(gRef, rRef, g2, r2); diff != "" {
		t.Fatalf("second model does not reflect the folded trips: %s", diff)
	}
	if sameFeatureMapBits(g1, r1, g2, r2) == "" {
		t.Fatal("second model equals the first: the folded trips changed nothing")
	}
	gp, rp := featureMapSnapshot(published)
	if diff := sameFeatureMapBits(g1, r1, gp, rp); diff != "" {
		t.Fatalf("published model changed: %s", diff)
	}
}

// TestConcurrentSelectOnLoadedModel runs §V selection from several
// goroutines against a model straight from ReadModelFrom, whose feature
// map has not derived its serving view yet: the first reads race to
// derive it. Run under -race; every goroutine must select what a
// sequential run selects.
func TestConcurrentSelectOnLoadedModel(t *testing.T) {
	city, s := newWorld(t, nil)
	var file bytes.Buffer
	if _, err := s.Model().WriteTo(&file); err != nil {
		t.Fatal(err)
	}
	load := func() *Model {
		m, err := ReadModelFrom(bytes.NewReader(file.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		return m
	}

	var jobs []*traj.Symbolic
	for _, tr := range simulate.GenerateFleet(city, simulate.FleetOptions{NumTrips: 12, Seed: 93, FixedHour: 8}) {
		sym, err := s.Calibrate(tr.Raw)
		if err != nil {
			continue
		}
		jobs = append(jobs, sym)
	}
	if len(jobs) == 0 {
		t.Fatal("no trip calibrated")
	}
	selectAll := func(m *Model, sym *traj.Symbolic) string {
		sel := &summarize.Selector{
			Registry:           s.registry,
			Ctx:                s.ctx,
			Popular:            m.popular,
			FeatureMap:         m.featMap,
			Landmarks:          s.cfg.Landmarks,
			GlobalMeanFallback: true,
		}
		matrix := s.registry.ExtractAll(sym, s.ctx)
		res, err := s.Partition(sym, 0)
		if err != nil {
			t.Error(err)
			return ""
		}
		var out string
		for _, part := range res.Parts {
			out += fmt.Sprintf("%+v\n", sel.SelectForPart(sym, part, matrix))
		}
		return out
	}
	ref := load()
	want := make([]string, len(jobs))
	for i, sym := range jobs {
		want[i] = selectAll(ref, sym)
	}

	fresh := load()
	var wg sync.WaitGroup
	got := make([][]string, 4)
	for w := range got {
		got[w] = make([]string, len(jobs))
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i, sym := range jobs {
				got[w][i] = selectAll(fresh, sym)
			}
		}(w)
	}
	wg.Wait()
	for w := range got {
		for i := range jobs {
			if got[w][i] != want[i] {
				t.Fatalf("goroutine %d trip %d:\n got %s\nwant %s", w, i, got[w][i], want[i])
			}
		}
	}
}
