package main

import (
	"path/filepath"
	"testing"
)

// TestGoldenCellLookup reads the committed grid the benchmark checks
// against and looks up the cells its workloads use.
func TestGoldenCellLookup(t *testing.T) {
	g, err := loadGolden(filepath.Join("..", goldenPath))
	if err != nil {
		t.Fatal(err)
	}
	dlp, err := g.cell("MM", "DLP")
	if err != nil {
		t.Fatal(err)
	}
	if dlp.Cycles != 351936 {
		t.Errorf("MM under DLP: %d cycles, want 351936", dlp.Cycles)
	}
	for _, app := range servePaperApps {
		if _, err := g.cell(app, "16KB(Baseline)"); err != nil {
			t.Error(err)
		}
	}
	if _, err := g.cell("MM", "no-such-scheme"); err == nil {
		t.Error("lookup of an unknown scheme succeeded")
	}
	if _, err := g.cell("NOPE", "DLP"); err == nil {
		t.Error("lookup of an unknown application succeeded")
	}
	same, err := sameCounters(dlp, dlp)
	if err != nil || !same {
		t.Errorf("a cell differs from itself: %v %v", same, err)
	}
	base, _ := g.cell("MM", "16KB(Baseline)")
	if same, _ := sameCounters(dlp, base); same {
		t.Error("MM under DLP and under the baseline compare equal")
	}
}
