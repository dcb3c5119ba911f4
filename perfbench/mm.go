package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	dlpsim "repro"
	"repro/internal/metrics"
	"repro/internal/sim"
)

// mmSetupSamples is how many fresh processes time the streamed
// frontend's set-up per run. One set-up takes milliseconds, mostly
// process start, so the median needs many of them to hold still from
// run to run.
const mmSetupSamples = 61

// phaseWindow is how many stepped cycles one recorded phase span covers
// on each worker: one span per cycle would swamp the run it measures.
const phaseWindow = 4096

// runMM is the mm-stream-cores workload: MM under DLP at 16KB through
// the lazy stream frontend (scale 1) on a phase-parallel engine with
// one shard per host CPU. The point is fixed, so the seed does not
// change it; runs repeat the point until --seconds have passed.
func runMM(ctx context.Context, o options) (*outcome, error) {
	return runChildWorkload(ctx, o, mmSetupSamples)
}

// phaseRecorder is the traced run's PhaseHook. Each worker index is
// driven by one goroutine, so its slot needs no lock; the run's return
// orders the slots before they are read.
type phaseRecorder struct {
	workers []phaseSlot
}

type phaseSlot struct {
	calls       uint64
	windowStart time.Time
	firstCycle  uint64
	spans       []phaseSpan
	_           [64]byte // keep workers' slots on separate cache lines
}

type phaseSpan struct {
	start, end     time.Time
	cycle0, cycle1 uint64
}

func (p *phaseRecorder) hook(w int, cycle uint64) {
	s := &p.workers[w]
	now := time.Now()
	if s.calls%phaseWindow == 0 {
		if s.calls > 0 {
			s.spans = append(s.spans, phaseSpan{s.windowStart, now, s.firstCycle, cycle})
		}
		s.windowStart, s.firstCycle = now, cycle
	}
	s.calls++
}

// flush adds the recorded phase windows to the trace, one track per
// worker.
func (p *phaseRecorder) flush(sr *spanRecorder) {
	for w := range p.workers {
		for _, s := range p.workers[w].spans {
			sr.span("phase", "phase", 100+w, s.start, s.end,
				map[string]any{"worker": w, "cycles": fmt.Sprintf("%d-%d", s.cycle0, s.cycle1)})
		}
	}
}

func mmChild(ctx context.Context, o options) error {
	// Set-up: resolve the application and open its stream; nothing is
	// generated before the engine pulls the first chunk.
	alloc0 := allocMB()
	genStart := time.Now()
	spec, err := dlpsim.WorkloadByAbbr("MM")
	if err != nil {
		return err
	}
	cfg, err := dlpsim.ConfigForL1D(16)
	if err != nil {
		return err
	}
	src := spec.Stream(1)
	genS := time.Since(genStart).Seconds()
	genMB := allocMB() - alloc0
	fmt.Println(readyLine)
	if o.setupOnly {
		return nil
	}

	g, err := loadGolden(goldenPath)
	if err != nil {
		return err
	}
	want, err := g.cell("MM", "DLP")
	if err != nil {
		return err
	}
	base, err := g.cell("MM", "16KB(Baseline)")
	if err != nil {
		return err
	}

	traced := o.traceOut != ""
	cores := runtime.NumCPU()
	var (
		sr       *spanRecorder
		sink     *mshrSink
		stopProf func() error
		stepped  uint64
	)
	if traced {
		sr = newSpanRecorder()
		sink = newMSHRSink()
		if stopProf, err = startProfile(o.traceOut + ".pprof"); err != nil {
			return err
		}
	}

	res := &childResult{Layer: map[string]float64{}, IPCRef: paperGainCI}
	var sims []simSample
	var cycles uint64
	loopStart := time.Now()
	for i := 0; i == 0 || time.Since(loopStart) < time.Duration(o.seconds)*time.Second; i++ {
		if i > 0 {
			src = spec.Stream(1)
		}
		opts := sim.Options{Cores: cores}
		rec := &phaseRecorder{workers: make([]phaseSlot, cores)}
		if traced {
			opts.PhaseHook = rec.hook
			opts.Metrics = &metrics.Config{Sink: sink, Label: fmt.Sprintf("MM under DLP #%d", i)}
		}
		start := time.Now()
		st, err := sim.RunStreamOnce(ctx, cfg, dlpsim.DLP, src, opts)
		d := time.Since(start)
		res.Attempted++
		if traced {
			sr.span("MM under DLP", "point", 1, start, start.Add(d), map[string]any{"cores": cores})
			rec.flush(sr)
			stepped += rec.workers[0].calls
		}
		if err != nil {
			res.fail("MM under DLP: %v", err)
			continue
		}
		same, err := sameCounters(st, want)
		if err != nil {
			return err
		}
		if !same {
			res.fail("MM under DLP differs from the golden cell in %s", goldenPath)
			continue
		}
		res.Jobs++
		res.UnitWallS = append(res.UnitWallS, d.Seconds())
		res.JobMS = append(res.JobMS, ms(d))
		res.IPCGain = st.IPC() / base.IPC()
		sims = append(sims, simSample{st, "CI", d})
		cycles += st.Cycles
	}
	res.WorkS = time.Since(loopStart).Seconds()
	if !traced {
		return printResult(res)
	}

	if err := stopProf(); err != nil {
		return err
	}
	l := res.Layer
	l["workloads.gen_s"] = genS
	l["workloads.alloc_mb"] = genMB
	l["sim.stepped_cycle_share"] = share(float64(stepped), float64(cycles))
	simLayerRates(l, sims)
	addCounters(l, sims, sink.mean())
	zeroLayers(l, "runner.queue_wait_ms", "runner.overhead_ms", "runner.busy_share")
	zeroLayers(l, serveLayerNames...)
	if err := sr.write(o.traceOut + ".trace.json"); err != nil {
		return err
	}
	return printResult(res)
}
