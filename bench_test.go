package dlpsim

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"repro/internal/addr"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/metrics"
	"repro/internal/policy"
)

// Each evaluation table/figure has a benchmark that regenerates it. The
// heavy simulation suites (Figs. 5 and 10–13) are computed once per
// process and cached; the per-iteration cost the benchmark reports is
// the table construction over those results, while the first iteration
// pays for the simulations themselves. Run with:
//
//	go test -bench=. -benchmem
//
// Micro-benchmarks for the core mechanisms (cache access path, PDPT
// sampling, RDD profiling) follow at the bottom.

var (
	benchPaperOnce sync.Once
	benchPaper     *SuiteResult
	benchAssocOnce sync.Once
	benchAssoc     *SuiteResult
)

func benchPaperSuite(b *testing.B) *SuiteResult {
	b.Helper()
	benchPaperOnce.Do(func() {
		var err error
		benchPaper, err = RunSuite(context.Background(), PaperSchemes(), nil)
		if err != nil {
			b.Fatal(err)
		}
	})
	return benchPaper
}

func benchAssocSuite(b *testing.B) *SuiteResult {
	b.Helper()
	benchAssocOnce.Do(func() {
		var err error
		benchAssoc, err = RunSuite(context.Background(), AssocSchemes(), nil)
		if err != nil {
			b.Fatal(err)
		}
	})
	return benchAssoc
}

// BenchmarkTable2Workloads regenerates every Table 2 application trace.
func BenchmarkTable2Workloads(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, w := range Workloads() {
			k := w.Generate()
			if len(k.Blocks) == 0 {
				b.Fatal("empty kernel")
			}
		}
	}
}

// BenchmarkTable2WorkloadsStream is the streamed counterpart of
// BenchmarkTable2Workloads: suite startup with the lazy frontend
// builds one stream per Table 2 application (a shape pass over the
// grid, no instruction materialization), which is what RunSuite with
// SuiteOptions.Stream pays before the SMs start pulling chunks.
func BenchmarkTable2WorkloadsStream(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, w := range Workloads() {
			src := w.Stream(1)
			if src.Blocks() == 0 {
				b.Fatal("empty stream")
			}
		}
	}
}

// BenchmarkFig3RDD regenerates the program-level reuse-distance
// distributions of all 18 applications.
func BenchmarkFig3RDD(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if d := Fig3RDD(); len(d.Rows) != 18 {
			b.Fatal("bad Fig3")
		}
	}
}

// BenchmarkFig4MissRate regenerates the 16/32/64KB reuse-miss-rate study.
func BenchmarkFig4MissRate(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Fig4MissRates(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig5Associativity regenerates the IPC-vs-cache-size figure.
func BenchmarkFig5Associativity(b *testing.B) {
	b.ReportAllocs()
	suite := benchAssocSuite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := suite.Fig5IPC(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig6AccessRatio regenerates the sorted memory-access-ratio
// classification.
func BenchmarkFig6AccessRatio(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Fig6Ratios(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig7PerPC regenerates BFS's per-instruction RDD.
func BenchmarkFig7PerPC(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if d := Fig7BFS(); len(d.Rows) == 0 {
			b.Fatal("bad Fig7")
		}
	}
}

// BenchmarkFig10IPC regenerates the headline IPC comparison.
func BenchmarkFig10IPC(b *testing.B) {
	b.ReportAllocs()
	suite := benchPaperSuite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := suite.Fig10IPC(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig11Traffic regenerates the L1D traffic and eviction tables.
func BenchmarkFig11Traffic(b *testing.B) {
	b.ReportAllocs()
	suite := benchPaperSuite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := suite.Fig11aTraffic(); err != nil {
			b.Fatal(err)
		}
		if _, err := suite.Fig11bEvictions(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig12Hits regenerates the hit-rate and hit-count tables.
func BenchmarkFig12Hits(b *testing.B) {
	b.ReportAllocs()
	suite := benchPaperSuite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := suite.Fig12aHitRate(); err != nil {
			b.Fatal(err)
		}
		if _, err := suite.Fig12bHits(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig13ICNT regenerates the interconnect-traffic table.
func BenchmarkFig13ICNT(b *testing.B) {
	b.ReportAllocs()
	suite := benchPaperSuite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := suite.Fig13ICNT(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOverheadModel evaluates the §4.3 cost model.
func BenchmarkOverheadModel(b *testing.B) {
	b.ReportAllocs()
	cfg := BaselineConfig()
	for i := 0; i < b.N; i++ {
		if o := HardwareOverhead(cfg); o.TotalBytes != 1264 {
			b.Fatal("wrong overhead")
		}
	}
}

// BenchmarkRunCFD measures one full simulation of the CFD application
// under each policy — the per-run cost behind the figure suites.
func BenchmarkRunCFD(b *testing.B) {
	b.ReportAllocs()
	for _, p := range Policies() {
		b.Run(p.String(), func(b *testing.B) {
			b.ReportAllocs()
			w, _ := WorkloadByAbbr("CFD")
			k := w.Generate()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := Run(BaselineConfig(), p, k); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// warmL1D drives req through c until the access hits: each round
// submits the request once and drains every outgoing response. One
// fill round is enough for the paper policies, but policies that keep
// the first touch out of the cache (ATA bypasses unseen tags) need an
// extra round before the line is resident, so the loop runs until the
// hit path is actually reached.
func warmL1D(tb testing.TB, c *core.L1D, req *mem.Request) {
	tb.Helper()
	for round := 0; round < 8; round++ {
		req.ID++
		if c.Access(req) == mem.OutcomeHit {
			return
		}
		for {
			r := c.PopOutgoing()
			if r == nil {
				break
			}
			c.OnResponse(r)
		}
		// The engine's request pool zeroes recycled requests; reusing
		// one object here must do the same, or a bypassed round would
		// leave req.Bypass set and turn the next fill into a delivery.
		req.Bypass = false
	}
	tb.Fatal("L1D did not reach the hit path in 8 warm-up rounds")
}

// BenchmarkL1DAccess measures the raw L1D access path (hit case) under
// every registered policy — the dispatch through the policy interface
// must stay free on the hot path.
func BenchmarkL1DAccess(b *testing.B) {
	b.ReportAllocs()
	for _, p := range Policies() {
		b.Run(p.String(), func(b *testing.B) {
			b.ReportAllocs()
			cfg := config.Baseline()
			delivered := 0
			c := core.NewL1D(cfg, p, func(*mem.Request) { delivered++ })
			req := &mem.Request{ID: 1, Addr: 0x1000, InsnID: addr.HashPC(3)}
			warmL1D(b, c, req)
			// One reused request: the steady-state hit path must not
			// allocate, and a fresh request per iteration would hide
			// that behind its own allocation.
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.Tick(uint64(i))
				req.ID = uint64(i + 2)
				if out := c.Access(req); out != mem.OutcomeHit {
					b.Fatalf("unexpected outcome %v", out)
				}
			}
		})
	}
}

// TestL1DAccessSteadyStateAllocs pins the zero-allocation guarantee of
// the steady-state L1D hit path under every policy; BenchmarkL1DAccess
// reports the same number but only when someone reads the bench output.
func TestL1DAccessSteadyStateAllocs(t *testing.T) {
	for _, p := range Policies() {
		cfg := config.Baseline()
		c := core.NewL1D(cfg, p, func(*mem.Request) {})
		req := &mem.Request{ID: 1, Addr: 0x1000, InsnID: addr.HashPC(3)}
		warmL1D(t, c, req)
		now := req.ID
		// Settle queue capacities before measuring.
		for i := 0; i < 256; i++ {
			now++
			c.Tick(now)
			req.ID = now
			c.Access(req)
		}
		avg := testing.AllocsPerRun(200, func() {
			now++
			c.Tick(now)
			req.ID = now
			c.Access(req)
		})
		if avg != 0 {
			t.Errorf("%v: L1D steady-state hit path allocates %.2f per access, want 0", p, avg)
		}
	}
}

// TestL1DAccessRegisteredRegistryAllocs proves the metrics registry is
// free when not sampled: with every counter and gauge of the cache
// registered (as the engine does when -metrics is set) but no sampling
// in progress, the steady-state hit path must still allocate nothing.
// Registration only records pointers to counters the cache already
// maintains — the access path never calls into the registry.
func TestL1DAccessRegisteredRegistryAllocs(t *testing.T) {
	for _, p := range Policies() {
		cfg := config.Baseline()
		c := core.NewL1D(cfg, p, func(*mem.Request) {})
		reg := metrics.NewRegistry()
		c.RegisterMetrics(reg, "l1d")
		reg.Seal()
		req := &mem.Request{ID: 1, Addr: 0x1000, InsnID: addr.HashPC(3)}
		warmL1D(t, c, req)
		now := req.ID
		for i := 0; i < 256; i++ {
			now++
			c.Tick(now)
			req.ID = now
			c.Access(req)
		}
		avg := testing.AllocsPerRun(200, func() {
			now++
			c.Tick(now)
			req.ID = now
			c.Access(req)
		})
		if avg != 0 {
			t.Errorf("%v: L1D hit path with a registered registry allocates %.2f per access, want 0", p, avg)
		}
		// Sampling itself is also allocation-free once sealed.
		if avg := testing.AllocsPerRun(100, func() { reg.Sample() }); avg != 0 {
			t.Errorf("%v: registry Sample allocates %.2f per call, want 0", p, avg)
		}
	}
}

// BenchmarkL1DAccessRegisteredRegistry is the benchmark form of the
// test above, for the perf baseline: allocs/op must report 0.
func BenchmarkL1DAccessRegisteredRegistry(b *testing.B) {
	b.ReportAllocs()
	cfg := config.Baseline()
	c := core.NewL1D(cfg, DLP, func(*mem.Request) {})
	reg := metrics.NewRegistry()
	c.RegisterMetrics(reg, "l1d")
	reg.Seal()
	req := &mem.Request{ID: 1, Addr: 0x1000, InsnID: addr.HashPC(3)}
	c.Access(req)
	for {
		r := c.PopOutgoing()
		if r == nil {
			break
		}
		c.OnResponse(r)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Tick(uint64(i))
		req.ID = uint64(i + 2)
		if out := c.Access(req); out != mem.OutcomeHit {
			b.Fatalf("unexpected outcome %v", out)
		}
	}
}

// BenchmarkSuitePaperWall runs the full RunSuite(PaperSchemes()) pass on
// one worker: ns/op is the serial suite wall time the performance
// baseline tracks (BENCH_PR3.json). The first result also seeds the
// shared suite cache used by the table benchmarks.
func BenchmarkSuitePaperWall(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := RunSuite(context.Background(), PaperSchemes(), &SuiteOptions{Workers: 1})
		if err != nil {
			b.Fatal(err)
		}
		benchPaperOnce.Do(func() { benchPaper = res })
	}
}

// BenchmarkDlpsimCoresMM measures one dlpsim-style run of the largest
// paper workload (MM, the longest serial simulation of the 18-app grid)
// under DLP at -cores 1 and -cores 8 — the acceptance numbers for the
// phase-parallel engine. The cores=8 case sets Options.Cores
// explicitly, exactly as cmd/dlpsim does, so the measurement reflects
// the flag's behavior regardless of GOMAXPROCS; on hosts with fewer
// CPUs than shards the pool parks instead of spinning, so the
// comparison degrades gracefully (and meaninglessly — read the ratio
// only on a multi-core box).
func BenchmarkDlpsimCoresMM(b *testing.B) {
	w, err := WorkloadByAbbr("MM")
	if err != nil {
		b.Fatal(err)
	}
	cfg := BaselineConfig()
	k := w.SharedKernel(cfg.L1D.LineSize)
	for _, cores := range []int{1, 8} {
		b.Run(fmt.Sprintf("cores%d", cores), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := RunWithOptions(cfg, DLP, k, Options{Cores: cores}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPDPTSample measures the Fig. 9 PD-computation cycle.
func BenchmarkPDPTSample(b *testing.B) {
	b.ReportAllocs()
	p := policy.NewPDPT(128, 4, 15)
	for i := 0; i < b.N; i++ {
		p.CreditVTA(uint8(i % 128))
		p.CreditTDA(uint8((i + 7) % 128))
		if i%200 == 0 {
			p.EndSample()
		}
	}
}

// BenchmarkWorkloadGen measures trace generation for the heaviest app.
func BenchmarkWorkloadGen(b *testing.B) {
	b.ReportAllocs()
	w, _ := WorkloadByAbbr("HG")
	for i := 0; i < b.N; i++ {
		if k := w.Generate(); len(k.Blocks) != 16 {
			b.Fatal("bad kernel")
		}
	}
}

// BenchmarkEngineScaling is the tracked scaling curve: the same MM
// workload at cores 1, 2, 4 and 8, in ascending order so cmd/benchjson
// can derive wall seconds and speedups for the ledger's scaling array
// (which cmd/benchgate then gates — monotonic speedup everywhere, >= 3x
// at the top point on hosts with enough CPUs). GOMAXPROCS is left
// alone: the curve must reflect what this host actually grants, so a
// single-CPU box records an honest flat curve and the gate judges it
// accordingly.
func BenchmarkEngineScaling(b *testing.B) {
	w, err := WorkloadByAbbr("MM")
	if err != nil {
		b.Fatal(err)
	}
	cfg := BaselineConfig()
	k := w.SharedKernel(cfg.L1D.LineSize)
	for _, cores := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("cores=%d", cores), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := RunWithOptions(cfg, DLP, k, Options{Cores: cores}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
