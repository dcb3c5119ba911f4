package main

import (
	"math"
	"testing"
)

const sampleTop = `File: perfbench
Type: cpu
Duration: 15.05s, Total samples = 17.06s (113.34%)
Showing nodes accounting for 17.06s, 100% of 17.06s total
      flat  flat%   sum%        cum   cum%
     2.50s 14.65% 14.65%      2.60s 15.24%  repro/internal/sim.(*phasePool).runPhase
     1.65s  9.67% 24.32%      1.86s 10.90%  repro/internal/sm.(*SM).pickWarp
     1.00s  5.86% 30.18%      3.43s 20.11%  repro/internal/sm.(*SM).tickLDST
     0.96s  5.63% 35.81%      0.97s  5.69%  repro/internal/cache.(*TagArray).Probe
     0.40s  2.34% 38.15%     13.09s 76.73%  repro/internal/sim.(*Engine).step
     0.30s  1.76% 39.91%      0.30s  1.76%  repro/internal/interconnect.(*dirQueue).PushBatch
     1.31s  7.68% 47.59%      1.32s  7.74%  runtime.mapaccess1_fast64
     0.05s  0.29% 47.88%      0.07s  0.41%  internal/runtime/maps.(*table).Delete
     0.20s  1.17% 49.05%      0.20s  1.17%  runtime.scanobject
     0.01s 0.059% 49.11%      0.01s 0.059%  gcWriteBarrier
     0.20s  1.17% 50.28%      0.30s  1.76%  repro/internal/workloads.(*wb).loadSpan
     0.10s  0.59% 50.87%      0.10s  0.59%  repro/internal/trace.(*Cursor).Fill
     0.10s  0.59% 51.46%      0.10s  0.59%  repro/internal/sim.(*phasePool).runSpans
         0     0%   100%      0.01s 0.059%  runtime.main
`

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

// TestAttributeTop checks the pprof -top parser and the layer
// attribution on a captured table.
func TestAttributeTop(t *testing.T) {
	rows, err := parseTop([]byte(sampleTop))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 14 {
		t.Fatalf("parsed %d rows, want 14", len(rows))
	}
	m := attribute(rows)
	for k, want := range map[string]float64{
		"host.sm":           0.0967 + 0.0586,
		"host.sm.pickwarp":  0.0967,
		"host.cache":        0.0563,
		"host.sim":          0.1465 + 0.0234 + 0.0059,
		"host.interconnect": 0.0176,
		"host.trace":        0.0117 + 0.0059,
		"host.runtime.map":  0.0768 + 0.0029,
		"host.runtime.gc":   0.0117 + 0.00059,
		"host.policy":       0,
		"sim.barrier_share": 0.1465,
		"sim.merge_share":   0.0234 + 0.0176,
	} {
		if !near(m[k], want) {
			t.Errorf("%s = %v, want %v", k, m[k], want)
		}
	}
	for _, l := range hostLayers {
		if _, ok := m[l]; !ok {
			t.Errorf("attribution lacks %s", l)
		}
	}
}

func TestParseTopRejectsOtherOutput(t *testing.T) {
	if _, err := parseTop([]byte("no profile here\n")); err == nil {
		t.Error("parseTop accepted output without a -top table")
	}
}

func TestFuncPackage(t *testing.T) {
	for fn, want := range map[string]string{
		"repro/internal/sm.(*SM).pickWarp": "repro/internal/sm",
		"runtime.mapaccess1_fast64":        "runtime",
		"internal/runtime/maps.h2":         "internal/runtime/maps",
		"gcWriteBarrier":                   "gcWriteBarrier",
	} {
		if got := funcPackage(fn); got != want {
			t.Errorf("funcPackage(%q) = %q, want %q", fn, got, want)
		}
	}
}
