// Package feature implements STMaker's feature extraction (§III): routing
// features describing where the moving object travels (grade of road, road
// width, traffic direction) and moving features describing how it travels
// (speed, number of stay points, number of U-turns, plus the sharp
// speed-change extension). New features can be registered at runtime, as
// §VI-B describes.
package feature

import (
	"fmt"
	"sync"

	"stmaker/internal/geo"
	"stmaker/internal/landmark"
	"stmaker/internal/roadnet"
	"stmaker/internal/traj"
)

// Class is the paper's two-way feature taxonomy.
type Class int

const (
	// Routing features describe where the object travels (§III-A).
	Routing Class = iota
	// Moving features describe how the object travels (§III-B).
	Moving
)

// String implements fmt.Stringer.
func (c Class) String() string {
	if c == Moving {
		return "moving"
	}
	return "routing"
}

// Canonical feature keys used across the library and in the experiments
// (matching the abbreviations in §VII-B: GR, RW, TD, Spe, Stay, U-turn,
// and the SpeC extension of Fig. 10(b)).
const (
	KeyGradeOfRoad = "GR"
	KeyRoadWidth   = "RW"
	KeyDirection   = "TD"
	KeySpeed       = "Spe"
	KeyStayPoints  = "Stay"
	KeyUTurns      = "U-turn"
	KeySpeedChange = "SpeC"
)

// Descriptor is feature metadata.
type Descriptor struct {
	// Key is the short unique identifier (e.g. "GR").
	Key string
	// Name is the human-readable name (e.g. "grade of road").
	Name string
	// Class says whether the feature is routing or moving.
	Class Class
	// Numeric is true for numeric features; false for categorical features
	// whose values are category codes (Table III/IV's Numeric column).
	Numeric bool
}

// Extractor computes one feature's value on a trajectory segment. Moving
// features read the raw samples behind the segment; routing features read
// the road network through the Context.
type Extractor interface {
	Descriptor() Descriptor
	// Extract returns the feature value of the segment. Categorical
	// features return their category code as a float64.
	Extract(seg traj.Segment, ctx *Context) float64
}

// Context carries the external semantic resources extractors may consult,
// plus a per-trajectory cache of what extraction found on each segment:
// the map-matched edges the routing extractors share, and the stay points
// and U-turns the moving extractors detected, which the summary templates
// present (§VI-A). The cache is synchronized, so one Context may serve
// concurrent extraction. Each ExtractAll (or ExtractAllInto) of a
// trajectory holds its entry until a matching ReleaseEdges.
type Context struct {
	Graph     *roadnet.Graph
	Matcher   *roadnet.Matcher
	Landmarks *landmark.Set

	// HMM, when set, replaces greedy per-sample nearest-edge matching with
	// joint Viterbi decoding over each segment's samples — slower but
	// robust to GPS noise near parallel roads.
	HMM *roadnet.HMMMatcher

	// MatchRadiusMeters bounds the sample-to-edge matching distance
	// (default 150).
	MatchRadiusMeters float64

	mu      sync.Mutex
	entries map[*traj.Symbolic]trajEntry
}

// trajEntry is one trajectory's cache entry: a row of per-segment results
// and the number of extractions holding it.
type trajEntry struct {
	segs  []segEntry
	holds int
}

// segEntry is what extraction found on one segment. done distinguishes
// "matched, nothing found" from "never matched"; stays and uturns are
// kept only when non-empty.
type segEntry struct {
	edges  []*roadnet.Edge
	done   bool
	stays  []Stay
	uturns []UTurn
}

// NewContext builds a context over the given map resources.
func NewContext(g *roadnet.Graph, m *roadnet.Matcher, lms *landmark.Set) *Context {
	return &Context{
		Graph:             g,
		Matcher:           m,
		Landmarks:         lms,
		MatchRadiusMeters: 150,
	}
}

// SegmentEdges map-matches each raw sample of the segment to its nearest
// road edge and returns the per-sample edges (skipping unmatched samples).
// Results are cached per (trajectory, segment); the trajectory's whole
// entry is dropped by ReleaseEdges when its request finishes, so a
// long-lived serving Context does not accumulate one entry per
// trajectory it ever saw.
func (ctx *Context) SegmentEdges(seg traj.Segment) []*roadnet.Edge {
	if ctx.Matcher == nil {
		return nil
	}
	if e := ctx.entry(seg); e.done {
		return e.edges
	}
	var edges []*roadnet.Edge
	if ctx.HMM != nil {
		samples := seg.RawSamples()
		pts := make([]geo.Point, len(samples))
		for i, s := range samples {
			pts[i] = s.Pt
		}
		for _, m := range ctx.HMM.MatchPoints(pts) {
			if m != nil {
				edges = append(edges, m.Edge)
			}
		}
	} else {
		for _, s := range seg.RawSamples() {
			if m, ok := ctx.Matcher.NearestEdge(s.Pt, ctx.MatchRadiusMeters); ok {
				edges = append(edges, m.Edge)
			}
		}
	}
	ctx.mu.Lock()
	e := ctx.segLocked(seg)
	e.edges, e.done = edges, true
	ctx.mu.Unlock()
	return edges
}

// entry returns a copy of the segment's cache slot, or the zero slot
// when nothing is cached.
func (ctx *Context) entry(seg traj.Segment) segEntry {
	ctx.mu.Lock()
	defer ctx.mu.Unlock()
	if row := ctx.entries[seg.Traj].segs; seg.Index < len(row) {
		return row[seg.Index]
	}
	return segEntry{}
}

// segLocked returns the segment's cache slot, creating the trajectory's
// entry or growing its row as needed. ctx.mu must be held.
func (ctx *Context) segLocked(seg traj.Segment) *segEntry {
	if ctx.entries == nil {
		ctx.entries = make(map[*traj.Symbolic]trajEntry)
	}
	ent := ctx.entries[seg.Traj]
	if len(ent.segs) <= seg.Index {
		grown := make([]segEntry, seg.Traj.NumSegments())
		copy(grown, ent.segs)
		ent.segs = grown
		ctx.entries[seg.Traj] = ent
	}
	return &ent.segs[seg.Index]
}

// hold marks one more extraction of the trajectory in flight.
func (ctx *Context) hold(s *traj.Symbolic) {
	ctx.mu.Lock()
	if ctx.entries == nil {
		ctx.entries = make(map[*traj.Symbolic]trajEntry)
	}
	ent := ctx.entries[s]
	ent.holds++
	ctx.entries[s] = ent
	ctx.mu.Unlock()
}

// ReleaseEdges ends one extraction's hold on the trajectory's cache
// entry and drops the entry (edges, stays and U-turns) once no
// extraction holds it. Callers that are done with a trajectory (a
// finished summarize request, a trained-on corpus trajectory) release
// it so the shared Context's cache stays bounded by the number of
// trajectories in flight; concurrent requests over the same trajectory
// keep its by-products until the last of them releases.
func (ctx *Context) ReleaseEdges(s *traj.Symbolic) {
	ctx.mu.Lock()
	if ent, ok := ctx.entries[s]; ok {
		if ent.holds--; ent.holds > 0 {
			ctx.entries[s] = ent
		} else {
			delete(ctx.entries, s)
		}
	}
	ctx.mu.Unlock()
}

// keepStays records the stay points extraction found on the segment.
// A nil Context or an empty result records nothing.
func (ctx *Context) keepStays(seg traj.Segment, stays []Stay) {
	if ctx != nil && len(stays) > 0 {
		ctx.mu.Lock()
		ctx.segLocked(seg).stays = stays
		ctx.mu.Unlock()
	}
}

// keepUTurns records the U-turns extraction found on the segment.
// A nil Context or an empty result records nothing.
func (ctx *Context) keepUTurns(seg traj.Segment, turns []UTurn) {
	if ctx != nil && len(turns) > 0 {
		ctx.mu.Lock()
		ctx.segLocked(seg).uturns = turns
		ctx.mu.Unlock()
	}
}

// Stays returns the stay points StayPoints extraction found on the
// segment through this Context, in time order; nil when there were none,
// when the segment was never extracted here, or for a nil Context. The
// slice is shared: callers must not modify it.
func (ctx *Context) Stays(seg traj.Segment) []Stay {
	if ctx == nil {
		return nil
	}
	return ctx.entry(seg).stays
}

// UTurns returns the U-turns UTurns extraction found on the segment
// through this Context, in time order, under the same rules as Stays.
func (ctx *Context) UTurns(seg traj.Segment) []UTurn {
	if ctx == nil {
		return nil
	}
	return ctx.entry(seg).uturns
}

// Registry is an ordered collection of extractors. Order is significant:
// feature vectors are laid out in registration order.
type Registry struct {
	extractors []Extractor
	byKey      map[string]int
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byKey: make(map[string]int)}
}

// NewDefaultRegistry returns a registry holding the paper's six features
// in the order GR, RW, TD, Spe, Stay, U-turn.
func NewDefaultRegistry() *Registry {
	r := NewRegistry()
	for _, e := range []Extractor{
		GradeOfRoad{}, RoadWidth{}, TrafficDirection{},
		NewSpeed(), NewStayPoints(), NewUTurns(),
	} {
		if err := r.Register(e); err != nil {
			panic(err) // unreachable: fixed distinct keys
		}
	}
	return r
}

// Register appends an extractor (§VI-B: extension with new features). It
// fails if the key is already registered.
func (r *Registry) Register(e Extractor) error {
	key := e.Descriptor().Key
	if key == "" {
		return fmt.Errorf("feature: extractor has empty key")
	}
	if _, dup := r.byKey[key]; dup {
		return fmt.Errorf("feature: duplicate feature key %q", key)
	}
	r.byKey[key] = len(r.extractors)
	r.extractors = append(r.extractors, e)
	return nil
}

// Len returns the number of registered features, |F|.
func (r *Registry) Len() int { return len(r.extractors) }

// Descriptors returns feature metadata in vector order.
func (r *Registry) Descriptors() []Descriptor {
	out := make([]Descriptor, len(r.extractors))
	for i, e := range r.extractors {
		out[i] = e.Descriptor()
	}
	return out
}

// IndexOf returns the vector position of the feature with the given key,
// or -1 when unknown.
func (r *Registry) IndexOf(key string) int {
	if i, ok := r.byKey[key]; ok {
		return i
	}
	return -1
}

// Vector is a segment's feature values in registry order.
type Vector []float64

// Extract computes the full feature vector of a segment.
func (r *Registry) Extract(seg traj.Segment, ctx *Context) Vector {
	v := make(Vector, len(r.extractors))
	for i, e := range r.extractors {
		v[i] = e.Extract(seg, ctx)
	}
	return v
}

// ExtractAll computes the feature matrix of a symbolic trajectory: one
// vector per segment, in freshly allocated storage.
func (r *Registry) ExtractAll(s *traj.Symbolic, ctx *Context) []Vector {
	return r.ExtractAllInto(new(MatrixBuf), s, ctx)
}

// MatrixBuf is reusable backing storage for a feature matrix: the rows
// are windows over one flat value slice, so an n-segment extraction
// costs zero allocations once the buffer has grown to the workload's
// trajectory size. A MatrixBuf serves one matrix at a time — reusing it
// invalidates the previously returned rows — and is not safe for
// concurrent use; the pipeline pools one per in-flight request, so
// nothing backed by the buffer may outlive the request (`make lint`
// poolescape tracks the aliases).
type MatrixBuf struct {
	rows []Vector
	flat []float64
}

// Matrix returns an n×dims matrix backed by the buffer.
func (b *MatrixBuf) Matrix(n, dims int) []Vector {
	if cap(b.flat) < n*dims {
		b.flat = make([]float64, n*dims)
	}
	flat := b.flat[: n*dims : n*dims]
	if cap(b.rows) < n {
		b.rows = make([]Vector, n)
	}
	rows := b.rows[:n]
	for i := range rows {
		rows[i] = flat[i*dims : (i+1)*dims : (i+1)*dims]
	}
	b.flat, b.rows = flat, rows
	return rows
}

// ExtractAllInto is ExtractAll against pooled backing storage: the
// returned matrix is valid until the buffer's next use. With a non-nil
// ctx the extraction holds the trajectory's cache entry, so the stays
// and U-turns it records stay readable until ReleaseEdges.
func (r *Registry) ExtractAllInto(buf *MatrixBuf, s *traj.Symbolic, ctx *Context) []Vector {
	if ctx != nil {
		ctx.hold(s)
	}
	out := buf.Matrix(s.NumSegments(), len(r.extractors))
	for i := range out {
		seg := s.Segment(i)
		for j, e := range r.extractors {
			out[i][j] = e.Extract(seg, ctx)
		}
	}
	return out
}

// NormalizeByMax returns a copy of the matrix with each feature dimension
// divided by its maximum absolute value across the matrix (§IV-B: "the
// normalizing constant of f is the biggest feature value among all the
// trajectory segments of T"). All-zero dimensions stay zero.
func NormalizeByMax(matrix []Vector) []Vector {
	return NormalizeByMaxInto(new(MatrixBuf), matrix)
}

// NormalizeByMaxInto is NormalizeByMax against pooled backing storage:
// the returned matrix is valid until the buffer's next use. maxAbs
// scratch rides in the same buffer's spare row header slot, so the
// call allocates nothing once the buffer has grown.
func NormalizeByMaxInto(buf *MatrixBuf, matrix []Vector) []Vector {
	if len(matrix) == 0 {
		return nil
	}
	dims := len(matrix[0])
	// One extra row holds the per-dimension maxima.
	rows := buf.Matrix(len(matrix)+1, dims)
	out, maxAbs := rows[:len(matrix)], rows[len(matrix)]
	for j := range maxAbs {
		maxAbs[j] = 0
	}
	for _, v := range matrix {
		for j, x := range v {
			if a := abs(x); a > maxAbs[j] {
				maxAbs[j] = a
			}
		}
	}
	for i, v := range matrix {
		for j, x := range v {
			if maxAbs[j] > 0 {
				out[i][j] = x / maxAbs[j]
			} else {
				out[i][j] = 0
			}
		}
	}
	return out
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// Weights maps feature keys to user-specified weights w_f (§IV-B). Missing
// keys default to 1.
type Weights map[string]float64

// VectorFor lays the weights out in the registry's vector order.
func (w Weights) VectorFor(r *Registry) []float64 {
	out := make([]float64, r.Len())
	for i, d := range r.Descriptors() {
		out[i] = 1
		if w != nil {
			if v, ok := w[d.Key]; ok && v >= 0 {
				out[i] = v
			}
		}
	}
	return out
}
