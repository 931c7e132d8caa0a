package main

import "testing"

func TestSelfTimeSubtractsChildCoverage(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", StartUS: 0, EndUS: 100},
		{ID: 2, Parent: 1, Name: "a", StartUS: 10, EndUS: 40},
		{ID: 3, Parent: 1, Name: "b", StartUS: 30, EndUS: 60},  // overlaps a
		{ID: 4, Parent: 2, Name: "a1", StartUS: 15, EndUS: 20}, // grandchild of root
		{ID: 5, Parent: 1, Name: "c", StartUS: 90, EndUS: 120}, // runs past root's end
	}
	fillSelfTimes(spans)
	// root: 100 minus the union [10,60] ∪ [90,100]; a grandchild is
	// covered by its parent, never subtracted twice.
	want := map[string]float64{"root": 40, "a": 25, "b": 30, "a1": 5, "c": 30}
	for _, s := range spans {
		if s.SelfUS != want[s.Name] {
			t.Errorf("%s: self %v, want %v", s.Name, s.SelfUS, want[s.Name])
		}
	}
	sum := summarise(append(spans, span{ID: 6, Name: "b", StartUS: 0, EndUS: 10, SelfUS: 10, Allocs: 4}))
	if b := sum["b"]; b.Calls != 2 || b.MedianUS != 20 || b.SelfUS != 40 || b.Allocs != 2 {
		t.Errorf("summary of b: %+v", b)
	}
}
