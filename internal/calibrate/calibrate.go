// Package calibrate rewrites raw trajectories into landmark-based symbolic
// trajectories (§II-A), following the anchor-based calibration approach the
// paper adopts from Su et al. (SIGMOD 2013): landmarks act as anchor
// points, and every landmark the raw trajectory passes within a given
// radius is inserted as a visit at its interpolated passing time.
//
// Calibration makes summarization independent of the sampling strategy:
// two trajectories sampled differently from the same route calibrate to
// the same symbolic trajectory.
package calibrate

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"stmaker/internal/geo"
	"stmaker/internal/landmark"
	"stmaker/internal/spatial"
	"stmaker/internal/traj"
)

// ErrTooFewAnchors is returned when a raw trajectory passes fewer than two
// landmarks and therefore yields no usable symbolic trajectory.
var ErrTooFewAnchors = errors.New("calibrate: trajectory passes fewer than 2 landmarks")

// Options configures the calibrator.
type Options struct {
	// RadiusMeters is the maximum distance at which a landmark is
	// considered passed by the trajectory (default 100).
	RadiusMeters float64
	// MinSpacingMeters drops an anchor when it follows the previous kept
	// anchor by less than this along-route distance; 0 keeps all anchors.
	MinSpacingMeters float64
	// RevisitGapMeters is the minimum along-route separation for two
	// passes of the same landmark to count as distinct visits (a loop),
	// rather than duplicate detections of one pass (default 3× radius).
	RevisitGapMeters float64
}

func (o Options) withDefaults() Options {
	if o.RadiusMeters <= 0 {
		o.RadiusMeters = 100
	}
	if o.RevisitGapMeters <= 0 {
		o.RevisitGapMeters = 3 * o.RadiusMeters
	}
	return o
}

// Calibrator converts raw trajectories to symbolic trajectories against a
// fixed landmark set.
type Calibrator struct {
	set  *landmark.Set
	opts Options
}

// New returns a calibrator over the given landmark set.
func New(set *landmark.Set, opts Options) *Calibrator {
	return &Calibrator{set: set, opts: opts.withDefaults()}
}

// anchor is a candidate landmark passage.
type anchor struct {
	landmarkID int
	along      float64 // metres from trajectory start
	dist       float64 // landmark-to-trajectory distance
	t          time.Time
	rawIndex   int
}

// Calibrate rewrites a raw trajectory into a symbolic trajectory. The
// returned trajectory has Raw set to r. It returns ErrTooFewAnchors when
// fewer than two landmark visits are found.
func (c *Calibrator) Calibrate(r *traj.Raw) (*traj.Symbolic, error) {
	if err := r.Validate(); err != nil {
		return nil, fmt.Errorf("calibrate: %w", err)
	}

	anchors := c.collectAnchors(r)
	anchors = dedupeAnchors(anchors, c.opts.RevisitGapMeters)
	anchors = enforceSpacing(anchors, c.opts.MinSpacingMeters)
	if len(anchors) < 2 {
		return nil, ErrTooFewAnchors
	}

	s := &traj.Symbolic{ID: r.ID, Raw: r}
	for _, a := range anchors {
		s.Visits = append(s.Visits, traj.Visit{Landmark: a.landmarkID, T: a.t, RawIndex: a.rawIndex})
	}
	return s, nil
}

// collectAnchors finds, for every raw polyline segment, the landmarks
// within the calibration radius, and records each hit with its along-route
// position and interpolated passing time.
func (c *Calibrator) collectAnchors(r *traj.Raw) []anchor {
	var anchors []anchor
	var walked float64
	// Landmark hits come unsorted into a reused buffer: the anchors are
	// sorted below anyway.
	var buf [32]spatial.Result
	hits := buf[:0]
	for i := 0; i+1 < len(r.Samples); i++ {
		a, b := r.Samples[i], r.Samples[i+1]
		segLen := geo.Distance(a.Pt, b.Pt)
		// Landmarks within radius of any point of the segment lie within
		// radius + segLen/2 of its midpoint.
		searchR := c.opts.RadiusMeters + segLen/2
		hits = c.set.AppendWithin(hits[:0], geo.Midpoint(a.Pt, b.Pt), searchR)
		for _, lm := range hits {
			d, t := geo.PointSegmentDistance(lm.Point, a.Pt, b.Pt)
			if d > c.opts.RadiusMeters {
				continue
			}
			passT := a.T
			if dt := b.T.Sub(a.T); dt > 0 {
				passT = a.T.Add(time.Duration(float64(dt) * t))
			}
			anchors = append(anchors, anchor{
				landmarkID: lm.ID,
				along:      walked + segLen*t,
				dist:       d,
				t:          passT,
				rawIndex:   i,
			})
		}
		walked += segLen
	}
	// A total order, so the result never depends on the hit order: the
	// same landmark can sit at one along-route position twice when it
	// lies exactly on the vertex two segments share.
	sort.Slice(anchors, func(i, j int) bool {
		if anchors[i].along != anchors[j].along { //lint:allow floateq -- sort comparator: exact tie-break on equal keys is intended
			return anchors[i].along < anchors[j].along
		}
		if anchors[i].landmarkID != anchors[j].landmarkID {
			return anchors[i].landmarkID < anchors[j].landmarkID
		}
		return anchors[i].rawIndex < anchors[j].rawIndex
	})
	return anchors
}

// dedupeAnchors merges repeated detections of the same landmark whose
// along-route positions are within revisitGap, keeping the closest
// detection of each pass. Distinct passes (loops) survive.
func dedupeAnchors(anchors []anchor, revisitGap float64) []anchor {
	// Group by landmark, then split each group into passes.
	byLm := make(map[int][]anchor)
	for _, a := range anchors {
		byLm[a.landmarkID] = append(byLm[a.landmarkID], a)
	}
	var out []anchor
	for _, group := range byLm {
		// group is in along order (stable from the pre-sorted input per
		// landmark since map grouping preserves slice order).
		start := 0
		for i := 1; i <= len(group); i++ {
			if i == len(group) || group[i].along-group[i-1].along > revisitGap {
				// [start, i) is one pass; keep the min-distance anchor.
				best := group[start]
				for _, a := range group[start+1 : i] {
					if a.dist < best.dist {
						best = a
					}
				}
				out = append(out, best)
				start = i
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].along != out[j].along { //lint:allow floateq -- sort comparator: exact tie-break on equal keys is intended
			return out[i].along < out[j].along
		}
		return out[i].landmarkID < out[j].landmarkID
	})
	// Finally drop immediate duplicates (same landmark twice in a row).
	var final []anchor
	for _, a := range out {
		if len(final) > 0 && final[len(final)-1].landmarkID == a.landmarkID {
			continue
		}
		final = append(final, a)
	}
	return final
}

// enforceSpacing drops anchors closer along the route than minSpacing to
// the previously kept anchor. The first and last anchors are always kept
// so the trajectory endpoints remain anchored.
func enforceSpacing(anchors []anchor, minSpacing float64) []anchor {
	if minSpacing <= 0 || len(anchors) <= 2 {
		return anchors
	}
	out := []anchor{anchors[0]}
	for i := 1; i < len(anchors)-1; i++ {
		if anchors[i].along-out[len(out)-1].along >= minSpacing {
			out = append(out, anchors[i])
		}
	}
	last := anchors[len(anchors)-1]
	if last.along-out[len(out)-1].along < minSpacing && len(out) > 1 {
		// Replace the final kept interior anchor to make room for the end.
		out = out[:len(out)-1]
	}
	out = append(out, last)
	return out
}
