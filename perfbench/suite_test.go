package main

import (
	"testing"

	dlpsim "repro"
)

// TestBatchOrderAlternatesClasses checks that the suite submits every
// application once, with CS and CI alternating.
func TestBatchOrderAlternatesClasses(t *testing.T) {
	apps := dlpsim.Workloads()
	got := batchOrder(apps)
	if len(got) != len(apps) {
		t.Fatalf("%d applications, want %d", len(got), len(apps))
	}
	seen := map[string]bool{}
	for i, w := range got {
		if seen[w.Abbr] {
			t.Fatalf("%s submitted twice", w.Abbr)
		}
		seen[w.Abbr] = true
		want := "CS"
		if i%2 == 1 {
			want = "CI"
		}
		if c := w.Class.String(); c != want {
			t.Errorf("position %d: %s is %s, want %s", i, w.Abbr, c, want)
		}
	}
}
