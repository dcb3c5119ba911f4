package main

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	dlpsim "repro"
)

// suiteSetupSamples is how many fresh processes time the suite's eager
// kernel generation per run.
const suiteSetupSamples = 3

// runSuite is the suite-fig10 workload: the Fig. 10 grid (18 apps ×
// PaperSchemes, 90 points) as one closed batch on nproc runner workers,
// serial engines, the eager frontend and no result cache. The grid is
// fixed by the paper, so the seed does not change it; runs repeat whole
// batches until --seconds have passed.
func runSuite(ctx context.Context, o options) (*outcome, error) {
	return runChildWorkload(ctx, o, suiteSetupSamples)
}

// batchOrder submits the applications with CS and CI alternating. In
// the registry's order the nine cheap CS apps come first, so half the
// jobs finish in the first tenth of a batch and the job p50 timed only
// those seconds: over ten seeds its spread reached 0.25. Alternating
// the classes puts the p50 near the middle of the batch.
func batchOrder(apps []dlpsim.Workload) []dlpsim.Workload {
	var cs, ci []dlpsim.Workload
	for _, w := range apps {
		if w.Class.String() == "CS" {
			cs = append(cs, w)
		} else {
			ci = append(ci, w)
		}
	}
	out := make([]dlpsim.Workload, 0, len(apps))
	for i := 0; i < len(cs) || i < len(ci); i++ {
		if i < len(cs) {
			out = append(out, cs[i])
		}
		if i < len(ci) {
			out = append(out, ci[i])
		}
	}
	return out
}

// jobClock records one batch's runner events and attempt times.
type jobClock struct {
	mu                    sync.Mutex
	queued, started, done []time.Time
	attempt               []time.Duration
}

func newJobClock(n int) *jobClock {
	return &jobClock{
		queued:  make([]time.Time, n),
		started: make([]time.Time, n),
		done:    make([]time.Time, n),
		attempt: make([]time.Duration, n),
	}
}

func (c *jobClock) event(ev dlpsim.RunEvent) {
	now := time.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	switch ev.Kind {
	case dlpsim.JobQueued:
		c.queued[ev.Index] = now
	case dlpsim.JobStarted:
		c.started[ev.Index] = now
	case dlpsim.JobDone:
		c.done[ev.Index] = now
	}
}

// intercept times every simulation attempt and records it as a span.
func (c *jobClock) intercept(sr *spanRecorder) dlpsim.Intercept {
	return func(ctx context.Context, index, attempt int, job dlpsim.Job, run dlpsim.SimFunc) (*dlpsim.Stats, error) {
		start := time.Now()
		st, err := run(ctx)
		end := time.Now()
		c.mu.Lock()
		c.attempt[index] += end.Sub(start)
		c.mu.Unlock()
		sr.span(job.Label, "attempt", index+1, start, end, map[string]any{"attempt": attempt})
		return st, err
	}
}

func suiteChild(ctx context.Context, o options) error {
	schemes := dlpsim.PaperSchemes()
	apps := batchOrder(dlpsim.Workloads())

	// Set-up: eager generation of every application's kernel into the
	// process-wide memo RunSuite draws from.
	alloc0 := allocMB()
	genStart := time.Now()
	lineSize := dlpsim.BaselineConfig().L1D.LineSize
	for _, w := range apps {
		w.SharedKernel(lineSize)
	}
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

	traced := o.traceOut != ""
	var (
		sr       *spanRecorder
		sink     *mshrSink
		stopProf func() error
	)
	if traced {
		sr = newSpanRecorder()
		sink = newMSHRSink()
		if stopProf, err = startProfile(o.traceOut + ".pprof"); err != nil {
			return err
		}
	}

	workers := runtime.NumCPU()
	res := &childResult{Layer: map[string]float64{}}
	var (
		clocks []*jobClock
		walls  []time.Duration
		sims   []simSample
	)
	loopStart := time.Now()
	for len(walls) == 0 || time.Since(loopStart) < time.Duration(o.seconds)*time.Second {
		clk := newJobClock(len(apps) * len(schemes))
		opts := &dlpsim.SuiteOptions{
			Apps:      apps,
			Workers:   workers,
			Cores:     1,
			KeepGoing: true,
			Events:    clk.event,
		}
		if traced {
			opts.Events = sr.jt.Wrap(clk.event)
			opts.Intercept = clk.intercept(sr)
			opts.Metrics = sink
		}
		start := time.Now()
		sres, err := dlpsim.RunSuite(ctx, schemes, opts)
		wall := time.Since(start)
		if err != nil && !errors.As(err, new(*dlpsim.BatchError)) {
			return fmt.Errorf("suite: %w", err)
		}
		walls = append(walls, wall)
		clocks = append(clocks, clk)
		for i, w := range apps {
			for j, sc := range schemes {
				res.Attempted++
				idx := i*len(schemes) + j
				st := sres.Stats[w.Abbr][sc.Name]
				if st == nil {
					res.fail("%s under %s failed", w.Abbr, sc.Name)
					continue
				}
				want, err := g.cell(w.Abbr, sc.Name)
				if err != nil {
					return err
				}
				same, err := sameCounters(st, want)
				if err != nil {
					return err
				}
				if !same {
					res.fail("%s under %s differs from %s", w.Abbr, sc.Name, goldenPath)
					continue
				}
				res.Jobs++
				res.JobMS = append(res.JobMS, ms(clk.done[idx].Sub(start)))
				sims = append(sims, simSample{st, w.Class.String(), clk.attempt[idx]})
			}
		}
		sp, err := sres.Speedups()
		if err != nil {
			return err
		}
		res.IPCGain, res.IPCRef = sp["DLP"]["CI"], paperGainCI
	}
	res.WorkS = time.Since(loopStart).Seconds()
	for _, w := range walls {
		res.UnitWallS = append(res.UnitWallS, w.Seconds())
	}
	if !traced {
		return printResult(res)
	}

	if err := stopProf(); err != nil {
		return err
	}
	l := res.Layer
	l["workloads.gen_s"] = genS
	l["workloads.alloc_mb"] = genMB
	var queueMS, overheadMS []float64
	var attemptNS float64
	for _, c := range clocks {
		for i := range c.done {
			queueMS = append(queueMS, ms(c.started[i].Sub(c.queued[i])))
			overheadMS = append(overheadMS, ms(c.done[i].Sub(c.started[i])-c.attempt[i]))
			attemptNS += float64(c.attempt[i])
		}
	}
	var wallNS float64
	for _, w := range walls {
		wallNS += float64(w)
	}
	l["runner.queue_wait_ms"] = mean(queueMS)
	l["runner.overhead_ms"] = mean(overheadMS)
	l["runner.busy_share"] = share(attemptNS, float64(workers)*wallNS)
	l["sim.stepped_cycle_share"] = 0 // RunSuite exposes no phase hook; engines are serial here
	simLayerRates(l, sims)
	addCounters(l, sims, sink.mean())
	zeroLayers(l, serveLayerNames...)
	if err := sr.write(o.traceOut + ".trace.json"); err != nil {
		return err
	}
	return printResult(res)
}

// simSample is one simulated point: its counters, its application's
// class and the host time its attempts took.
type simSample struct {
	st    *dlpsim.Stats
	class string
	host  time.Duration
}

// simLayerRates derives host time per simulated cycle, warp instruction
// (split by application class) and L1D access.
func simLayerRates(l map[string]float64, sims []simSample) {
	var ns, cycles, l1d float64
	insnNS := map[string]float64{}
	insns := map[string]float64{}
	for _, s := range sims {
		d := float64(s.host)
		ns += d
		cycles += float64(s.st.Cycles)
		l1d += float64(s.st.L1DAccesses)
		insnNS[s.class] += d
		insns[s.class] += float64(s.st.WarpInsns)
	}
	l["sim.host_s"] = ns / 1e9
	l["sim.ns_per_cycle"] = share(ns, cycles)
	l["sim.ns_per_warp_insn_cs"] = share(insnNS["CS"], insns["CS"])
	l["sim.ns_per_warp_insn_ci"] = share(insnNS["CI"], insns["CI"])
	l["host.ns_per_l1d_access"] = share(ns, l1d)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func (r *childResult) fail(format string, args ...any) {
	r.Failed++
	if len(r.Problems) < 10 {
		r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
	}
}
