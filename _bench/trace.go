package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"

	"stmaker"
	"stmaker/internal/feature"
	"stmaker/internal/geo"
	"stmaker/internal/irregular"
	"stmaker/internal/partition"
	"stmaker/internal/roadnet"
	"stmaker/internal/sanitize"
	"stmaker/internal/server"
	"stmaker/internal/simulate"
	"stmaker/internal/summarize"
	"stmaker/internal/traj"
)

// span is one timed call into a layer. Times are nanoseconds since the
// recorder's epoch; parent indexes the recorder's spans (-1: a root).
type span struct {
	Name   string `json:"name"`
	Item   int    `json:"item"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder keeps spans in memory; they are written out when the run ends.
type recorder struct {
	epoch time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

func (r *recorder) begin(name string, item, parent int) int {
	r.spans = append(r.spans, span{Name: name, Item: item, Parent: parent, Start: int64(time.Since(r.epoch))})
	return len(r.spans) - 1
}

func (r *recorder) end(id int) { r.spans[id].End = int64(time.Since(r.epoch)) }

// selfTimes returns each span's self time: its duration minus the part
// of its interval that its children cover (overlapping children are
// counted once).
func selfTimes(spans []span) []int64 {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.End - s.Start - covered(s, spans, children[i])
	}
	return self
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent span, spans []span, kids []int) int64 {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := max(spans[k].Start, parent.Start), min(spans[k].End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, curA, curB int64
	open := false
	for _, v := range ivs {
		switch {
		case !open:
			curA, curB, open = v.a, v.b, true
		case v.a <= curB:
			curB = max(curB, v.b)
		default:
			total += curB - curA
			curA, curB = v.a, v.b
		}
	}
	if open {
		total += curB - curA
	}
	return total
}

// Span names. The stage spans are children of spanPipeline, which with
// the two server spans is a child of the per-item root.
const (
	spanItem      = "item"
	spanDecode    = "server.decode"
	spanEncode    = "server.encode"
	spanPipeline  = "pipeline"
	spanSanitize  = "sanitize"
	spanCalibrate = "calibrate"
	spanExtract   = "feature.extract"
	spanMatch     = "roadnet.match" // child of feature.extract
	spanPartition = "partition"
	spanSelect    = "summarize.select"
	spanRender    = "summarize.render"
)

// stageSpans are the spans whose self times add up to the pipeline.
var stageSpans = []string{spanSanitize, spanCalibrate, spanExtract, spanMatch, spanPartition, spanSelect, spanRender}

// tracer rebuilds Summarizer.SummarizeK from public calls, with a span
// around each call into a layer.
type tracer struct {
	s         *stmaker.Summarizer
	city      *simulate.City
	model     *stmaker.Model
	sanitizer *sanitize.Sanitizer
	fctx      *feature.Context
	cache     *roadnet.SPCache
	rec       *recorder
}

// newTracer builds the feature.Context exactly as stmaker.New does —
// greedy matcher, and for HMM workloads an HMM matcher over a default SP
// cache — and points the HMM router at the model's routing overlay as a
// model publish does.
func newTracer(w workload, s *stmaker.Summarizer, city *simulate.City) *tracer {
	t := &tracer{
		s: s, city: city, model: s.Model(),
		sanitizer: sanitize.New(sanitize.Options{}),
		fctx:      feature.NewContext(city.Graph, roadnet.NewMatcher(city.Graph), city.Landmarks),
		rec:       newRecorder(),
	}
	if w.hmm {
		t.cache = roadnet.NewSPCache(roadnet.SPCacheOptions{})
		t.fctx.HMM = roadnet.NewHMMMatcher(city.Graph, roadnet.HMMOptions{Cache: t.cache})
		if ov := t.model.RoutingOverlay(); ov != nil {
			t.fctx.HMM.SetRouter(roadnet.NewALTRouter(city.Graph, ov))
		}
	}
	return t
}

// tracedItem is what one traced item produced besides its spans.
type tracedItem struct {
	text     string
	sym      *traj.Symbolic
	parts    []partition.Part
	raw      *traj.Raw // after sanitization
	repairs  int
	features int
	reqBytes int
}

// summarize runs one request body through the rebuilt pipeline.
func (t *tracer) summarize(item int, body []byte) (*tracedItem, error) {
	rec := t.rec
	root := rec.begin(spanItem, item, -1)
	defer rec.end(root)
	out := &tracedItem{reqBytes: len(body)}

	sp := rec.begin(spanDecode, item, root)
	var req server.SummarizeRequest
	err := json.Unmarshal(body, &req)
	rec.end(sp)
	if err != nil {
		return nil, err
	}

	pipe := rec.begin(spanPipeline, item, root)
	sp = rec.begin(spanSanitize, item, pipe)
	raw, rep, err := t.sanitizer.Sanitize(req.Trajectory)
	rec.end(sp)
	if err != nil {
		return nil, err
	}
	out.raw, out.repairs = raw, rep.Repairs()

	sp = rec.begin(spanCalibrate, item, pipe)
	sym, err := t.s.Calibrate(raw)
	rec.end(sp)
	if err != nil {
		return nil, err
	}
	out.sym = sym
	defer t.fctx.ReleaseEdges(sym)

	reg := t.s.Registry()
	sp = rec.begin(spanExtract, item, pipe)
	m := rec.begin(spanMatch, item, sp)
	for i := 0; i < sym.NumSegments(); i++ {
		t.fctx.SegmentEdges(sym.Segment(i))
	}
	rec.end(m)
	matrix := reg.ExtractAll(sym, t.fctx)
	rec.end(sp)

	sp = rec.begin(spanPartition, item, pipe)
	res, err := t.partition(sym, matrix, req.K)
	rec.end(sp)
	if err != nil {
		return nil, err
	}
	out.parts = res.Parts

	sp = rec.begin(spanSelect, item, pipe)
	summary := t.selectFeatures(sym, res.Parts, matrix)
	rec.end(sp)

	sp = rec.begin(spanRender, item, pipe)
	t.s.Templates().RenderSummary(summary)
	rec.end(sp)
	rec.end(pipe)

	sp = rec.begin(spanEncode, item, root)
	var buf bytes.Buffer
	err = json.NewEncoder(&buf).Encode(response(summary))
	rec.end(sp)
	if err != nil {
		return nil, err
	}
	out.text = summary.Text
	for _, p := range summary.Parts {
		out.features += len(p.Features)
	}
	return out, nil
}

// partition is the §IV step as the summarizer runs it: max-normalized
// features, landmark significance at each cut, default Ca and weights;
// k <= 0 asks for the optimal partition, larger k is clamped to the
// segment count.
func (t *tracer) partition(sym *traj.Symbolic, matrix []feature.Vector, k int) (partition.Result, error) {
	n := sym.NumSegments()
	norm := feature.NormalizeByMax(matrix)
	in := partition.Input{Features: make([][]float64, n), Significance: make([]float64, n)}
	for i := 0; i < n; i++ {
		in.Features[i] = norm[i]
		in.Significance[i] = t.city.Landmarks.Get(sym.Visits[i].Landmark).Significance
	}
	opts := partition.Options{Ca: partition.DefaultCa, Weights: feature.Weights(nil).VectorFor(t.s.Registry())}
	if k <= 0 {
		return partition.Optimal(in, opts)
	}
	return partition.KPartition(in, min(k, n), opts)
}

// selectFeatures is the §V step over the published model's popular-route
// and feature-map data, with the summarizer's defaults.
func (t *tracer) selectFeatures(sym *traj.Symbolic, parts []partition.Part, matrix []feature.Vector) *summarize.Summary {
	lms := t.city.Landmarks
	selector := &summarize.Selector{
		Registry:           t.s.Registry(),
		Ctx:                t.fctx,
		Popular:            t.model.Popular(),
		FeatureMap:         t.model.FeatureMap(),
		Landmarks:          lms,
		Threshold:          irregular.DefaultThreshold,
		GlobalMeanFallback: true,
	}
	summary := &summarize.Summary{TrajectoryID: sym.ID}
	for _, part := range parts {
		ps := summarize.PartSummary{
			Part:   part,
			Source: sym.Visits[part.FirstSeg].Landmark,
			Dest:   sym.Visits[part.LastSeg+1].Landmark,
		}
		ps.SourceName = lms.Get(ps.Source).Name
		ps.DestName = lms.Get(ps.Dest).Name
		if g, name, ok := summarize.RoadForPart(t.fctx, sym, part); ok {
			ps.RoadType = g.String()
			ps.RoadName = name
		}
		ps.Features = selector.SelectForPart(sym, part, matrix)
		summary.Parts = append(summary.Parts, ps)
	}
	return summary
}

// response maps a summary to the wire response as the server does.
func response(sum *summarize.Summary) server.SummarizeResponse {
	resp := server.SummarizeResponse{ID: sum.TrajectoryID, Text: sum.Text, Parts: make([]server.PartResponse, 0, len(sum.Parts))}
	for _, p := range sum.Parts {
		pr := server.PartResponse{Source: p.SourceName, Dest: p.DestName, RoadType: p.RoadType, Text: p.Text}
		for _, f := range p.Features {
			pr.Features = append(pr.Features, server.FeatureEntry{Key: f.Key, Rate: f.Rate, Value: f.Value})
		}
		resp.Parts = append(resp.Parts, pr)
	}
	return resp
}

// layerCounts accumulates the replays and counts taken per item outside
// the spans.
type layerCounts struct {
	nearestNs, nearestQ, nearestHit int64
	withinNs, withinQ, withinHits   int64
	transitions, misses             int64
	globalMeanNs, globalMeanCalls   int64
	globalMeanTimed                 int64
}

// replaySpatial replays the item's spatial queries outside the pipeline:
// NearestEdge on every sample at the feature.Context match radius, and
// landmark Within per polyline segment at the calibration radius, as
// calibrate queries it.
func (t *tracer) replaySpatial(raw *traj.Raw, lc *layerCounts) {
	samples := raw.Samples
	t0 := time.Now()
	for _, s := range samples {
		if _, ok := t.fctx.Matcher.NearestEdge(s.Pt, t.fctx.MatchRadiusMeters); ok {
			lc.nearestHit++
		}
	}
	lc.nearestNs += int64(time.Since(t0))
	lc.nearestQ += int64(len(samples))

	radius := t.model.CalibrationRadiusMeters()
	var hits int
	t0 = time.Now()
	for i := 0; i+1 < len(samples); i++ {
		a, b := samples[i].Pt, samples[i+1].Pt
		hits += len(t.city.Landmarks.Within(geo.Midpoint(a, b), radius+geo.Distance(a, b)/2))
	}
	lc.withinNs += int64(time.Since(t0))
	lc.withinQ += int64(max(len(samples)-1, 0))
	lc.withinHits += int64(hits)
}

// countHistory counts the item's landmark transitions missing from the
// feature map, and the GlobalMean calls the selector makes for them: one
// per moving feature for each missing transition of a part, and one per
// routing feature for each missing hop of the part's popular route. It
// then times that many GlobalMean calls back to back (at least one), as
// the selector makes them.
func (t *tracer) countHistory(sym *traj.Symbolic, parts []partition.Part, lc *layerCounts) {
	fm, pop := t.model.FeatureMap(), t.model.Popular()
	var moving, routing int64
	for _, d := range t.s.Registry().Descriptors() {
		if d.Class == feature.Moving {
			moving++
		} else {
			routing++
		}
	}
	for i := 0; i < sym.NumSegments(); i++ {
		lc.transitions++
		if !fm.HasEdge(sym.Visits[i].Landmark, sym.Visits[i+1].Landmark) {
			lc.misses++
		}
	}
	var calls int64
	for _, p := range parts {
		for i := p.FirstSeg; i <= p.LastSeg; i++ {
			if !fm.HasEdge(sym.Visits[i].Landmark, sym.Visits[i+1].Landmark) {
				calls += moving
			}
		}
		route, ok := pop.Route(sym.Visits[p.FirstSeg].Landmark, sym.Visits[p.LastSeg+1].Landmark)
		if !ok {
			continue
		}
		for i := 1; i < len(route); i++ {
			if !fm.HasEdge(route[i-1], route[i]) {
				calls += routing
			}
		}
	}
	lc.globalMeanCalls += calls
	n := max(calls, 1)
	t0 := time.Now()
	for i := int64(0); i < n; i++ {
		fm.GlobalMean()
	}
	lc.globalMeanNs += int64(time.Since(t0))
	lc.globalMeanTimed += n
}

// traceResult is the traced run's per-layer ledger.
type traceResult struct {
	metrics []metric
	tally   tally
}

// runTrace is the traced run: for --seconds it summarizes served trips
// both untraced (Summarizer.SummarizeK, timed whole) and through the
// rebuilt, span-instrumented pipeline, alternating which goes first,
// and requires the two texts to match byte for byte.
func runTrace(w workload, seed int64, seconds float64, spansPath string, log io.Writer) (*traceResult, error) {
	city := buildWorld(w)
	corpus := trainingCorpus(w, city)
	trips := servedTrips(w, city, seed)
	b, err := encodeBodies(w, trips)
	if err != nil {
		return nil, err
	}

	s, err := newSummarizer(w, city)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	if _, err := s.Train(corpus); err != nil {
		return nil, fmt.Errorf("train: %w", err)
	}
	trainS := time.Since(t0).Seconds()
	t := newTracer(w, s, city)

	var (
		res                         traceResult
		lc                          layerCounts
		untracedNs                  int64
		repairs, features, reqBytes int64
		parts, textBytes, items     int64
	)
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for i := 0; i == 0 || time.Now().Before(deadline); i++ {
		if !w.cycle && i >= len(trips) {
			break
		}
		trip := i % len(trips)
		var want string
		untraced := func() error {
			t0 := time.Now()
			sum, err := s.SummarizeK(trips[trip], w.kFor(trip))
			untracedNs += int64(time.Since(t0))
			if err == nil {
				want = sum.Text
			}
			return err
		}
		var got *tracedItem
		traced := func() (err error) {
			got, err = t.summarize(i, b.single[trip])
			return err
		}
		first, second := untraced, traced
		if i%2 == 1 {
			first, second = traced, untraced
		}
		if err := first(); err != nil {
			return nil, fmt.Errorf("trip %d: %w", trip, err)
		}
		if err := second(); err != nil {
			return nil, fmt.Errorf("trip %d: %w", trip, err)
		}
		ok := got.text == want
		res.tally.add(ok)
		if !ok {
			fmt.Fprintf(log, "FAIL trip %d: traced pipeline text differs from SummarizeK\n  traced: %q\n  want:   %q\n", trip, got.text, want)
		}
		t.replaySpatial(got.raw, &lc)
		t.countHistory(got.sym, got.parts, &lc)
		items++
		repairs += int64(got.repairs)
		features += int64(got.features)
		reqBytes += int64(got.reqBytes)
		parts += int64(len(got.parts))
		textBytes += int64(len(got.text))
	}

	self := selfTimes(t.rec.spans)
	selfNs := map[string]int64{}
	durNs := map[string]int64{}
	for i, sp := range t.rec.spans {
		selfNs[sp.Name] += self[i]
		durNs[sp.Name] += sp.End - sp.Start
	}
	var stageSelf int64
	for _, name := range stageSpans {
		stageSelf += selfNs[name]
	}

	n := float64(items)
	perItemUs := func(ns int64) float64 { return float64(ns) / n / 1e3 }
	ratio := func(a, b int64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	itemUs := perItemUs(untracedNs)
	matchUs := perItemUs(selfNs[spanMatch])
	hmmUs := 0.0
	var sp roadnet.SPCacheStats
	if w.hmm {
		hmmUs = matchUs
		sp = t.cache.Stats()
	}
	nearestNs := ratio(lc.nearestNs, lc.nearestQ)
	withinNs := ratio(lc.withinNs, lc.withinQ)
	globalMeanUs := ratio(lc.globalMeanNs, lc.globalMeanTimed) / 1e3
	gmCalls := float64(lc.globalMeanCalls) / n
	// Greedy matching is NearestEdge on every sample; HMM matching finds
	// its candidates itself, so only calibration's Within counts there.
	spatialNs := lc.withinNs
	if !w.hmm {
		spatialNs += lc.nearestNs
	}

	res.metrics = []metric{
		{"pipeline.item_us", itemUs, "us"},
		{"trace.items", n, "count"},
		{"trace.coverage", ratio(stageSelf, untracedNs), "ratio"},
		{"trace.overhead", ratio(durNs[spanPipeline], untracedNs), "ratio"},
		{"share.spatial", perItemUs(spatialNs) / itemUs, "ratio"},
		{"share.history", gmCalls * globalMeanUs / itemUs, "ratio"},
		{"share.routing", hmmUs / itemUs, "ratio"},
		{"server.decode_us", perItemUs(selfNs[spanDecode]), "us"},
		{"server.encode_us", perItemUs(selfNs[spanEncode]), "us"},
		{"server.request_bytes", float64(reqBytes) / n, "bytes"},
		{"sanitize.us", perItemUs(selfNs[spanSanitize]), "us"},
		{"sanitize.repairs_per_item", float64(repairs) / n, "count"},
		{"calibrate.us", perItemUs(selfNs[spanCalibrate]), "us"},
		{"landmark.within_ns", withinNs, "ns"},
		{"landmark.hits_per_query", ratio(lc.withinHits, lc.withinQ), "count"},
		{"feature.extract_us", perItemUs(selfNs[spanExtract]), "us"},
		{"roadnet.match_us", matchUs, "us"},
		{"roadnet.nearest_edge_ns", nearestNs, "ns"},
		{"roadnet.match_ratio", ratio(lc.nearestHit, lc.nearestQ), "ratio"},
		{"roadnet.hmm_us", hmmUs, "us"},
		{"roadnet.sp_lookups_per_item", float64(sp.Hits+sp.Misses) / n, "count"},
		{"roadnet.sp_hit_ratio", ratio(sp.Hits, sp.Hits+sp.Misses), "ratio"},
		{"roadnet.sp_misses_per_item", float64(sp.Misses) / n, "count"},
		{"partition.us", perItemUs(selfNs[spanPartition]), "us"},
		{"partition.parts_per_item", float64(parts) / n, "count"},
		{"summarize.select_us", perItemUs(selfNs[spanSelect]), "us"},
		{"summarize.features_per_item", float64(features) / n, "count"},
		{"history.miss_ratio", ratio(lc.misses, lc.transitions), "ratio"},
		{"history.global_mean_us", globalMeanUs, "us"},
		{"history.global_mean_calls_per_item", gmCalls, "count"},
		{"summarize.render_us", perItemUs(selfNs[spanRender]), "us"},
		{"summarize.text_bytes", float64(textBytes) / n, "bytes"},
		{"setup.train_s", trainS, "s"},
		{"model.transitions", float64(s.Model().NumTransitions()), "count"},
	}
	if err := writeSpans(spansPath, t.rec.spans); err != nil {
		return nil, err
	}
	fmt.Fprintf(log, "spans: %d written to %s\n", len(t.rec.spans), spansPath)
	return &res, nil
}

// writeSpans writes the recorded spans as one JSON array.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	if err := json.NewEncoder(bw).Encode(spans); err != nil {
		f.Close()
		return err
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
