package benchfmt

import (
	"errors"
	"io/fs"
	"os"
	"strings"
	"testing"
)

const sampleBench = `goos: linux
goarch: amd64
pkg: repro
BenchmarkFig10IPC-8             	   10000	    105000 ns/op	   51234 B/op	     420 allocs/op
BenchmarkL1DAccess/DLP-8        	 8322818	     144.1 ns/op	       0 B/op	       0 allocs/op
BenchmarkSuitePaperWall         	       1	51200000000 ns/op	123456 B/op	 789 allocs/op
PASS
ok  	repro	60.0s
`

func TestParse(t *testing.T) {
	doc, err := Parse(strings.NewReader(sampleBench))
	if err != nil {
		t.Fatal(err)
	}
	if len(doc.Benchmarks) != 3 {
		t.Fatalf("parsed %d benchmarks, want 3", len(doc.Benchmarks))
	}
	if got := doc.Benchmarks[1]; got.Name != "BenchmarkL1DAccess/DLP" ||
		got.Iters != 8322818 || got.NsPerOp != 144.1 || got.BytesOp != 0 || got.AllocsOp != 0 {
		t.Errorf("sub-benchmark line parsed as %+v", got)
	}
	if doc.SuiteWallSeconds != 51.2 {
		t.Errorf("suite wall = %v s, want 51.2", doc.SuiteWallSeconds)
	}
}

func TestParseRejectsEmptyInput(t *testing.T) {
	if _, err := Parse(strings.NewReader("PASS\nok repro 1.0s\n")); err == nil {
		t.Fatal("no benchmark lines accepted silently")
	}
}

func TestEncodeRoundTrips(t *testing.T) {
	doc, err := Parse(strings.NewReader(sampleBench))
	if err != nil {
		t.Fatal(err)
	}
	raw, err := doc.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasSuffix(string(raw), "\n") {
		t.Error("encoded document missing trailing newline")
	}
	path := t.TempDir() + "/bench.json"
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	back, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.SuiteWallSeconds != doc.SuiteWallSeconds || len(back.Benchmarks) != len(doc.Benchmarks) {
		t.Errorf("round trip changed the document: %+v vs %+v", back, doc)
	}
}

func TestRegressPct(t *testing.T) {
	for _, tc := range []struct {
		base, fresh, want float64
	}{
		{100, 115, 15},
		{100, 90, -10},
		{50, 50, 0},
		{0, 0, 0},
		{0, 1, 100},
	} {
		if got := RegressPct(tc.base, tc.fresh); got != tc.want {
			t.Errorf("RegressPct(%v, %v) = %v, want %v", tc.base, tc.fresh, got, tc.want)
		}
	}
}

func TestHostFingerprint(t *testing.T) {
	h := CurrentHost()
	if h.NumCPU < 1 || h.GOMAXPROCS < 1 || h.GOARCH == "" {
		t.Fatalf("CurrentHost() = %+v", h)
	}
	same := *h
	if !HostMatches(h, &same) {
		t.Error("identical fingerprints must match")
	}
	other := *h
	other.NumCPU++
	if HostMatches(h, &other) {
		t.Error("differing num_cpu must not match")
	}
	// A missing fingerprint on either side — e.g. a baseline recorded
	// before the field existed — can never be declared comparable.
	if HostMatches(nil, h) || HostMatches(h, nil) || HostMatches(nil, nil) {
		t.Error("nil fingerprints must not match")
	}
	if (*Host)(nil).String() != "unrecorded" {
		t.Error("nil Host must print as unrecorded")
	}
}

func TestHostSurvivesEncode(t *testing.T) {
	doc, err := Parse(strings.NewReader(sampleBench))
	if err != nil {
		t.Fatal(err)
	}
	if doc.Host != nil {
		t.Fatal("Parse must not invent a fingerprint; benchjson stamps it")
	}
	doc.Host = CurrentHost()
	raw, err := doc.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(raw), `"num_cpu"`) {
		t.Fatalf("encoded document missing host envelope:\n%s", raw)
	}
	path := t.TempDir() + "/bench.json"
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	back, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !HostMatches(doc.Host, back.Host) {
		t.Errorf("fingerprint changed in round trip: %+v vs %+v", doc.Host, back.Host)
	}
}

func TestCheckAllocs(t *testing.T) {
	base := &Baseline{Benchmarks: []Result{
		{Name: "BenchmarkHot", AllocsOp: 0},
		{Name: "BenchmarkWarm", AllocsOp: 100},
	}}
	ok := &Baseline{Benchmarks: []Result{
		{Name: "BenchmarkHot", AllocsOp: 0},
		{Name: "BenchmarkWarm", AllocsOp: 110}, // exactly at the 10% allowance
		{Name: "BenchmarkNew", AllocsOp: 9999}, // fresh-only: nothing to gate against
	}}
	if err := CheckAllocs(base, ok); err != nil {
		t.Errorf("within-allowance document failed: %v", err)
	}
	if err := CheckAllocs(base, &Baseline{Benchmarks: []Result{{Name: "BenchmarkWarm", AllocsOp: 111}}}); err == nil {
		t.Error("11% alloc regression passed the gate")
	}
	// The zero-alloc hot paths are the point: any alloc at all fails.
	if err := CheckAllocs(base, &Baseline{Benchmarks: []Result{{Name: "BenchmarkHot", AllocsOp: 1}}}); err == nil {
		t.Error("0 -> 1 allocs/op passed the gate")
	}
	// The wall macro-benchmark's allocs/op depends on which benchmarks
	// ran alongside it (one-time kernel memoization), so it is exempt
	// here and gated by CheckWall.
	wall := func(allocs int64) *Baseline {
		return &Baseline{Benchmarks: []Result{{Name: "BenchmarkSuitePaperWall", AllocsOp: allocs}}}
	}
	if err := CheckAllocs(wall(593328), wall(10574257)); err != nil {
		t.Errorf("SuitePaperWall allocs must be exempt: %v", err)
	}
}

func TestCheckWall(t *testing.T) {
	base := &Baseline{SuiteWallSeconds: 50}
	if err := CheckWall(base, &Baseline{SuiteWallSeconds: 57}, 15); err != nil {
		t.Errorf("14%% slower failed the 15%% gate: %v", err)
	}
	if err := CheckWall(base, &Baseline{SuiteWallSeconds: 40}, 15); err != nil {
		t.Errorf("a speedup failed the gate: %v", err)
	}
	if err := CheckWall(base, &Baseline{SuiteWallSeconds: 60}, 15); err == nil {
		t.Error("20%% regression passed the 15%% gate")
	}
	if err := CheckWall(&Baseline{}, base, 15); err == nil {
		t.Error("baseline without a wall number passed the gate")
	}
	if err := CheckWall(base, &Baseline{}, 15); err == nil {
		t.Error("fresh measurement without a wall number passed the gate")
	}
}

func TestLedgerFindBaseline(t *testing.T) {
	dir := t.TempDir()
	h := &Host{NumCPU: 16, GOMAXPROCS: 16, GOARCH: "amd64"}
	if fp := h.Fingerprint(); fp != "amd64-16c16p" {
		t.Fatalf("Fingerprint() = %q", fp)
	}
	if fp := (*Host)(nil).Fingerprint(); fp != "unrecorded" {
		t.Errorf("nil Fingerprint() = %q", fp)
	}

	// No entry for this class yet: the miss must be distinguishable
	// (fs.ErrNotExist) so the gate can fall back instead of failing.
	if _, path, err := FindBaseline(dir, h); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("missing entry: err = %v (path %s), want fs.ErrNotExist", err, path)
	}

	doc := &Baseline{SuiteWallSeconds: 42, Benchmarks: []Result{{Name: "BenchmarkHot"}}, Host: h}
	enc, err := doc.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(BaselineFile(dir, h), enc, 0o644); err != nil {
		t.Fatal(err)
	}
	got, path, err := FindBaseline(dir, h)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasSuffix(path, "BENCH_amd64-16c16p.json") {
		t.Errorf("ledger path = %s", path)
	}
	if got.SuiteWallSeconds != 42 || !HostMatches(got.Host, h) {
		t.Errorf("loaded entry = %+v", got)
	}

	// A document copied across machine classes (recorded fingerprint
	// disagrees with the filename's) must be an error, not a silent
	// wall gate against foreign numbers.
	other := *h
	other.NumCPU = 4
	if err := os.WriteFile(BaselineFile(dir, &other), enc, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := FindBaseline(dir, &other); err == nil || errors.Is(err, fs.ErrNotExist) {
		t.Errorf("cross-class copy: err = %v, want a fingerprint mismatch error", err)
	}
}

// TestLedgerAnyBaseline: a host class without its own entry still
// finds some entry to gate allocs/op against, and an empty ledger is
// reported as fs.ErrNotExist.
func TestLedgerAnyBaseline(t *testing.T) {
	dir := t.TempDir()
	if _, _, err := AnyBaseline(dir); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("empty ledger: err = %v, want fs.ErrNotExist", err)
	}
	h := &Host{NumCPU: 1, GOMAXPROCS: 1, GOARCH: "amd64"}
	enc, err := (&Baseline{SuiteWallSeconds: 7, Host: h}).Encode()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(BaselineFile(dir, h), enc, 0o644); err != nil {
		t.Fatal(err)
	}
	got, path, err := AnyBaseline(dir)
	if err != nil {
		t.Fatal(err)
	}
	if path != BaselineFile(dir, h) || got.SuiteWallSeconds != 7 {
		t.Errorf("AnyBaseline = %s, %+v", path, got)
	}
}

const scalingBench = `goos: linux
goarch: amd64
pkg: repro
BenchmarkEngineScaling/cores=1-8     	       2	 800000000 ns/op
BenchmarkEngineScaling/cores=2-8     	       3	 420000000 ns/op
BenchmarkEngineScaling/cores=4-8     	       5	 230000000 ns/op
BenchmarkEngineScaling/cores=8-8     	       8	 130000000 ns/op
BenchmarkSuitePaperWall              	       1	51200000000 ns/op
PASS
`

func TestParseDerivesScalingCurve(t *testing.T) {
	doc, err := Parse(strings.NewReader(scalingBench))
	if err != nil {
		t.Fatal(err)
	}
	if len(doc.Scaling) != 4 {
		t.Fatalf("curve has %d points, want 4: %+v", len(doc.Scaling), doc.Scaling)
	}
	wantCores := []int{1, 2, 4, 8}
	wantSpeedup := []float64{1, 800.0 / 420, 800.0 / 230, 800.0 / 130}
	for i, p := range doc.Scaling {
		if p.Cores != wantCores[i] {
			t.Errorf("point %d: cores = %d, want %d", i, p.Cores, wantCores[i])
		}
		if diff := p.Speedup - wantSpeedup[i]; diff > 1e-9 || diff < -1e-9 {
			t.Errorf("point %d: speedup = %v, want %v", i, p.Speedup, wantSpeedup[i])
		}
	}
	if doc.Scaling[0].WallSeconds != 0.8 {
		t.Errorf("cores=1 wall = %v s, want 0.8", doc.Scaling[0].WallSeconds)
	}
}

func TestParseNoScalingWithoutSerialPoint(t *testing.T) {
	doc, err := Parse(strings.NewReader(`BenchmarkEngineScaling/cores=2-8 3 400000000 ns/op
BenchmarkEngineScaling/cores=4-8 5 200000000 ns/op
`))
	if err != nil {
		t.Fatal(err)
	}
	if doc.Scaling != nil {
		t.Fatalf("curve derived without a cores=1 reference: %+v", doc.Scaling)
	}
}

func TestCheckScaling(t *testing.T) {
	curve := func(speedups ...float64) []ScalingPoint {
		cores := []int{1, 2, 4, 8}
		out := make([]ScalingPoint, len(speedups))
		for i, s := range speedups {
			out[i] = ScalingPoint{Cores: cores[i], WallSeconds: 1 / s, Speedup: s}
		}
		return out
	}
	host := func(ncpu int) *Host { return &Host{NumCPU: ncpu, GOMAXPROCS: ncpu, GOARCH: "amd64"} }

	// Healthy curve on a big host: passes the >= 3x top-speedup gate.
	ok := &Baseline{Scaling: curve(1, 1.9, 3.4, 5.8), Host: host(16)}
	if err := CheckScaling(ok, 3); err != nil {
		t.Errorf("healthy curve rejected: %v", err)
	}

	// Flat curve on a single-CPU host: every parallel point is beyond
	// the host's CPUs, so both gates are vacuous — the honest outcome.
	flat := &Baseline{Scaling: curve(1, 0.98, 0.97, 0.95), Host: host(1)}
	if err := CheckScaling(flat, 3); err != nil {
		t.Errorf("single-CPU host must not be gated on parallelism it cannot measure: %v", err)
	}

	// Same flat curve recorded on a 16-CPU host: fails the top gate.
	if err := CheckScaling(&Baseline{Scaling: curve(1, 0.98, 0.97, 0.95), Host: host(16)}, 3); err == nil {
		t.Error("flat curve on a 16-CPU host must fail the top-speedup gate")
	}

	// Non-monotonic curve within the host's CPUs: more cores ran
	// slower by more than the 10% allowance.
	if err := CheckScaling(&Baseline{Scaling: curve(1, 3.0, 2.0, 3.5), Host: host(16)}, 3); err == nil {
		t.Error("speedup collapse between cores=2 and cores=4 must fail monotonicity")
	}

	// Small dips inside the allowance pass.
	if err := CheckScaling(&Baseline{Scaling: curve(1, 2.0, 1.95, 3.2), Host: host(16)}, 3); err != nil {
		t.Errorf("a <10%% dip must pass: %v", err)
	}

	// Hosts smaller than the top point skip the top gate but still
	// check monotonicity over the points they could run.
	if err := CheckScaling(&Baseline{Scaling: curve(1, 0.4, 2.9, 2.9), Host: host(2)}, 3); err == nil {
		t.Error("cores=2 slower than cores=1 on a 2-CPU host must fail")
	}

	// No curve at all (older documents): passes.
	if err := CheckScaling(&Baseline{}, 3); err != nil {
		t.Errorf("curve-less baseline rejected: %v", err)
	}
}
