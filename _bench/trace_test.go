package main

import (
	"errors"
	"testing"
)

var errTest = errors.New("connection refused")

func TestSelfTimeSubtractsChildren(t *testing.T) {
	spans := []span{
		{Name: "item", Parent: -1, Start: 0, End: 100},
		{Name: "a", Parent: 0, Start: 10, End: 30},
		{Name: "b", Parent: 0, Start: 40, End: 90},
		{Name: "b.child", Parent: 2, Start: 50, End: 60},
		{Name: "b.child2", Parent: 2, Start: 55, End: 70}, // overlaps b.child
		{Name: "c", Parent: 0, Start: 95, End: 120},       // runs past its parent
	}
	self := selfTimes(spans)
	want := []int64{
		100 - 20 - 50 - 5, // children a, b and the part of c inside the item
		20,
		50 - 20, // b.child ∪ b.child2 covers 50..70
		10,
		15,
		25,
	}
	for i := range spans {
		if self[i] != want[i] {
			t.Errorf("self(%s) = %d, want %d", spans[i].Name, self[i], want[i])
		}
	}
}

func TestRecorderNestsSpans(t *testing.T) {
	r := newRecorder()
	root := r.begin("item", 7, -1)
	child := r.begin("calibrate", 7, root)
	r.end(child)
	r.end(root)
	if got := r.spans[child]; got.Parent != root || got.Item != 7 || got.End < got.Start {
		t.Errorf("child span = %+v", got)
	}
	if r.spans[root].End < r.spans[child].End {
		t.Error("root ended before its child")
	}
	self := selfTimes(r.spans)
	if self[root] != (r.spans[root].End-r.spans[root].Start)-(r.spans[child].End-r.spans[child].Start) {
		t.Errorf("root self time %d ignores its child", self[root])
	}
}
