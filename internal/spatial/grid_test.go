package spatial

import (
	"math"
	"math/rand"
	"testing"

	"stmaker/internal/geo"
)

var origin = geo.Point{Lat: 39.9, Lng: 116.4}

// itemsOf gives each point its slice index as id.
func itemsOf(pts []geo.Point) []Item {
	items := make([]Item, len(pts))
	for i, p := range pts {
		items[i] = Item{ID: i, Pt: p}
	}
	return items
}

func TestWithinBasic(t *testing.T) {
	pts := []geo.Point{
		origin,
		geo.Destination(origin, 90, 100),
		geo.Destination(origin, 90, 500),
		geo.Destination(origin, 0, 2000),
	}
	ix := Build(250, itemsOf(pts))
	if ix.Len() != 4 {
		t.Fatalf("Len = %d", ix.Len())
	}
	got := ix.Within(origin, 600)
	if len(got) != 3 {
		t.Fatalf("Within(600) returned %d hits, want 3: %+v", len(got), got)
	}
	// Results are sorted by distance.
	for i := 1; i < len(got); i++ {
		if got[i].Distance < got[i-1].Distance {
			t.Fatalf("results not sorted: %+v", got)
		}
	}
	if got[0].ID != 0 || got[1].ID != 1 || got[2].ID != 2 {
		t.Fatalf("unexpected ids: %+v", got)
	}
}

func TestWithinNegativeRadius(t *testing.T) {
	ix := Build(250, []Item{{ID: 1, Pt: origin}})
	if got := ix.Within(origin, -1); got != nil {
		t.Fatalf("Within(-1) = %v", got)
	}
}

func TestNearest(t *testing.T) {
	a := geo.Destination(origin, 45, 300)
	b := geo.Destination(origin, 45, 900)
	ix := Build(250, []Item{{ID: 10, Pt: a}, {ID: 20, Pt: b}})

	r, ok := ix.Nearest(origin, 5000)
	if !ok || r.ID != 10 {
		t.Fatalf("Nearest = %+v ok=%v, want id 10", r, ok)
	}
	if math.Abs(r.Distance-300) > 2 {
		t.Fatalf("Nearest distance = %v", r.Distance)
	}

	// Tight radius excludes everything.
	if _, ok := ix.Nearest(origin, 100); ok {
		t.Fatalf("Nearest within 100m should not exist")
	}
}

func TestNearestEmpty(t *testing.T) {
	ix := Build(250, nil)
	if _, ok := ix.Nearest(origin, 1e6); ok {
		t.Fatal("Nearest on empty index should report none")
	}
}

func TestNearestMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var pts []geo.Point
	for i := 0; i < 500; i++ {
		pts = append(pts, geo.Destination(origin, rng.Float64()*360, rng.Float64()*5000))
	}
	ix := Build(200, itemsOf(pts))
	for trial := 0; trial < 50; trial++ {
		q := geo.Destination(origin, rng.Float64()*360, rng.Float64()*5000)
		bestID, bestD := -1, math.Inf(1)
		for i, p := range pts {
			if d := geo.Distance(q, p); d < bestD {
				bestID, bestD = i, d
			}
		}
		r, ok := ix.Nearest(q, 20000)
		if !ok {
			t.Fatalf("trial %d: no hit", trial)
		}
		if r.ID != bestID && math.Abs(r.Distance-bestD) > 1e-6 {
			t.Fatalf("trial %d: got id %d (%.2fm), want id %d (%.2fm)",
				trial, r.ID, r.Distance, bestID, bestD)
		}
	}
}

func TestWithinMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var pts []geo.Point
	for i := 0; i < 300; i++ {
		pts = append(pts, geo.Destination(origin, rng.Float64()*360, rng.Float64()*4000))
	}
	ix := Build(300, itemsOf(pts))
	for trial := 0; trial < 20; trial++ {
		q := geo.Destination(origin, rng.Float64()*360, rng.Float64()*4000)
		radius := 200 + rng.Float64()*1500
		want := map[int]bool{}
		for i, p := range pts {
			if geo.Distance(q, p) <= radius {
				want[i] = true
			}
		}
		got := ix.Within(q, radius)
		if len(got) != len(want) {
			t.Fatalf("trial %d: got %d hits, want %d", trial, len(got), len(want))
		}
		for _, r := range got {
			if !want[r.ID] {
				t.Fatalf("trial %d: unexpected hit %d", trial, r.ID)
			}
		}
	}
}

func TestDefaultCellSize(t *testing.T) {
	ix := Build(0, []Item{{ID: 1, Pt: origin}}) // falls back to the default
	if _, ok := ix.Nearest(origin, 10); !ok {
		t.Fatal("default-cell index should find the inserted point")
	}
}
