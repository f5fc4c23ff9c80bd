package main

import (
	"fmt"
	"math"
	"testing"

	"stmaker/internal/traj"
)

func TestBeyondCountsSamplesAboveThePercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		want int
	}{
		{n: 100, p: 90, want: 10},
		{n: 120, p: 90, want: 12},
		{n: 300, p: 90, want: 30},
		{n: 32, p: 68, want: 10},
		{n: 2000, p: 99.5, want: 10},
		{n: 10, p: 0, want: 9},
	} {
		if got := beyond(c.n, c.p); got != c.want {
			t.Errorf("beyond(%d, p%v) = %d, want %d", c.n, c.p, got, c.want)
		}
	}
}

func TestFrozenTailPercentilesHaveTenSamplesBeyond(t *testing.T) {
	seconds := readSpec(t).RunSeconds
	for _, w := range workloads {
		open, _ := phases(seconds, w.blocks)
		per := openRequests(w.rate, open)
		if got := beyond(per, w.tailPct); got < minTailSamples {
			t.Errorf("%s: p%v of a %d-sample round leaves only %d beyond it", w.name, w.tailPct, per, got)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 6, 7, 8, 9, 10}
	for _, c := range []struct{ p, want float64 }{{50, 5}, {90, 9}, {91, 10}, {100, 10}, {0, 1}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(p%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if xs[0] != 5 {
		t.Error("percentile reordered its input")
	}
	// A failed request enters as +Inf and so counts against the limit.
	withFail := []float64{1, 2, 3, inf}
	if got := percentile(withFail, 100); !math.IsInf(got, 1) {
		t.Errorf("p100 with a failure = %v, want +Inf", got)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v", got)
	}
}

func TestErrorRateAccounting(t *testing.T) {
	var a tally
	for i := 0; i < 8; i++ {
		a.add(true)
	}
	a.add(false)
	a.add(false)
	a.add(true)
	if a.attempted != 11 || a.failed != 2 {
		t.Fatalf("tally = %+v, want 11 attempted, 2 failed", a)
	}
	if got, want := a.errorRate(), 2.0/11; got != want {
		t.Errorf("errorRate = %v, want %v", got, want)
	}
	if (tally{}).errorRate() != 0 {
		t.Error("empty tally must report a zero error rate")
	}
}

func TestCheckReplyCountsEveryFailureKind(t *testing.T) {
	trips := servedTrips(workloads[0], buildWorld(workloads[0]), 1)[:3]
	ref := map[int]string{0: "a", 1: "b", 2: "c"}
	ok := func(r reply) []bool { return checkReply(r, trips, ref) }
	id := func(i int) string { return trips[i].ID }

	single := reply{trips: []int{1}, code: 200, body: []byte(`{"id":"` + id(1) + `","text":"b"}`)}
	if got := ok(single); !got[0] {
		t.Error("matching single reply counted as failed")
	}
	for name, r := range map[string]reply{
		"non-2xx":   {trips: []int{1}, code: 503, body: single.body},
		"transport": {trips: []int{1}, err: errTest},
		"mismatch":  {trips: []int{1}, code: 200, body: []byte(`{"id":"` + id(1) + `","text":"B"}`)},
		"wrong id":  {trips: []int{1}, code: 200, body: []byte(`{"id":"x","text":"b"}`)},
		"garbage":   {trips: []int{1}, code: 200, body: []byte(`{`)},
	} {
		if ok(r)[0] {
			t.Errorf("%s reply counted as correct", name)
		}
	}

	batch := reply{trips: []int{0, 1, 2}, batch: true, code: 200, body: []byte(`[` +
		`{"id":"` + id(0) + `","text":"a"},` +
		`{"id":"","text":"","error":"calibrate: too few anchors"},` +
		`{"id":"` + id(2) + `","text":"c"}]`)}
	got := ok(batch)
	if !got[0] || got[1] || !got[2] {
		t.Errorf("batch verdicts = %v, want [true false true] (a per-item error fails only its item)", got)
	}
	short := batch
	short.body = []byte(`[{"id":"` + id(0) + `","text":"a"}]`)
	for i, v := range ok(short) {
		if v {
			t.Errorf("item %d of a batch reply with missing items counted as correct", i)
		}
	}
}

func TestStratifiedSpansLengthsInEveryWindow(t *testing.T) {
	var trips []*traj.Raw
	for i := 0; i < 64; i++ {
		// Lengths 63, 62, ..., 0: shuffled relative to the sorted order.
		trips = append(trips, &traj.Raw{ID: fmt.Sprint(i), Samples: make([]traj.Sample, 63-i)})
	}
	got := stratified(trips, 16)
	if len(got) != 16 {
		t.Fatalf("got %d trips, want 16", len(got))
	}
	seen := map[string]bool{}
	for _, r := range got {
		if seen[r.ID] {
			t.Fatalf("trip %s appears twice", r.ID)
		}
		seen[r.ID] = true
	}
	// Every window of four consecutive trips holds a trip from each half.
	for i := 0; i+4 <= len(got); i++ {
		lo, hi := 64, -1
		for _, r := range got[i : i+4] {
			lo, hi = min(lo, len(r.Samples)), max(hi, len(r.Samples))
		}
		if lo >= 32 || hi < 32 {
			t.Errorf("window %d spans lengths %d..%d only", i, lo, hi)
		}
	}
}
