package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	dlpsim "repro"
	"repro/internal/metrics"
)

// readyLine is what a child prints once its set-up is done; the parent
// times set-up from exec to this line.
const readyLine = "ready"

// childResult is the JSON line a simulation child prints last.
type childResult struct {
	Attempted int       `json:"attempted"`
	Problems  []string  `json:"problems"`
	Failed    int       `json:"failed"`
	UnitWallS []float64 `json:"unit_wall_s"` // one per batch or point
	JobMS     []float64 `json:"job_ms"`      // per-job latency samples
	Jobs      int       `json:"jobs"`        // jobs completed
	WorkS     float64   `json:"work_s"`      // wall of the whole measured loop
	IPCGain   float64   `json:"ipc_gain"`    // geomean DLP gain over the 16KB baseline
	IPCRef    float64   `json:"ipc_ref"`     // the paper's value for the same apps
	// Layer holds the per-layer values a traced child measures itself.
	Layer map[string]float64 `json:"layer,omitempty"`
}

// childRun is one finished child process as the parent saw it.
type childRun struct {
	setupS float64
	rssMB  float64
	res    childResult
}

func childArgs(o options, setupOnly bool, traceOut string) []string {
	args := []string{
		"-child", o.workload,
		"-seed", strconv.FormatInt(o.seed, 10),
		"-seconds", strconv.Itoa(o.seconds),
	}
	if setupOnly {
		args = append(args, "-setup-only")
	}
	if traceOut != "" {
		args = append(args, "-trace-out", traceOut)
	}
	return args
}

// spawn runs this executable as a workload child and waits for it. A
// fresh process per run keeps the process-wide kernel memo and the heap
// cold, and makes the peak RSS the run's own.
func spawn(ctx context.Context, args []string) (*childRun, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.CommandContext(ctx, exe, args...)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting child: %w", err)
	}
	var ready time.Time
	var last []byte
	sc := bufio.NewScanner(stdout)
	sc.Buffer(make([]byte, 64<<10), 64<<20)
	for sc.Scan() {
		if sc.Text() == readyLine && ready.IsZero() {
			ready = time.Now()
			continue
		}
		last = append(last[:0], sc.Bytes()...)
	}
	scanErr := sc.Err()
	if err := cmd.Wait(); err != nil {
		return nil, fmt.Errorf("child %v: %w", args, err)
	}
	if scanErr != nil {
		return nil, fmt.Errorf("reading child output: %w", scanErr)
	}
	if ready.IsZero() {
		return nil, fmt.Errorf("child %v never finished set-up", args)
	}
	cr := &childRun{setupS: ready.Sub(start).Seconds(), rssMB: maxRSSMB(cmd.ProcessState)}
	if len(last) > 0 {
		if err := json.Unmarshal(last, &cr.res); err != nil {
			return nil, fmt.Errorf("child result: %w", err)
		}
	}
	return cr, nil
}

// maxRSSMB is a finished process's peak resident set.
func maxRSSMB(ps *os.ProcessState) float64 {
	if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
		return float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	return 0
}

// runChildWorkload is the parent side of the simulation workloads:
// setupSamples children time set-up (the first also runs the measured
// work), and a traced invocation adds one traced child whose profile
// is attributed to layers.
func runChildWorkload(ctx context.Context, o options, setupSamples int) (*outcome, error) {
	main, err := spawn(ctx, childArgs(o, false, ""))
	if err != nil {
		return nil, err
	}
	out := &outcome{
		attempted: main.res.Attempted,
		failed:    main.res.Failed,
		problems:  main.res.Problems,
		values:    map[string]float64{},
	}
	if !o.trace {
		setups := []float64{main.setupS}
		for i := 1; i < setupSamples; i++ {
			s, err := spawn(ctx, childArgs(o, true, ""))
			if err != nil {
				return nil, err
			}
			setups = append(setups, s.setupS)
		}
		r := main.res
		out.values["setup_s"] = median(setups)
		out.values["wall_s"] = median(r.UnitWallS)
		out.values["peak_rss_mb"] = main.rssMB
		out.values["job_p50_ms"] = median(r.JobMS)
		out.values["job_p99_ms"] = tail(r.JobMS)
		out.values["jobs_per_s"] = share(float64(r.Jobs), r.WorkS)
		out.values["ipc_gain_err"] = gainErr(r.IPCGain, r.IPCRef)
		return out, nil
	}

	prefix := filepath.Join(o.out, fmt.Sprintf("%s-seed%d", o.workload, o.seed))
	traced, err := spawn(ctx, childArgs(o, false, prefix))
	if err != nil {
		return nil, err
	}
	out.attempted += traced.res.Attempted
	out.failed += traced.res.Failed
	out.problems = append(out.problems, traced.res.Problems...)
	for k, v := range traced.res.Layer {
		out.values[k] = v
	}
	rows, err := pprofTop(prefix + ".pprof")
	if err != nil {
		return nil, err
	}
	for k, v := range attribute(rows) {
		out.values[k] = v
	}
	// Per-unit walls, not the whole loop's: the loop runs whole units
	// until --seconds have passed, so its length moves in steps of one.
	base, tr := median(main.res.UnitWallS), median(traced.res.UnitWallS)
	out.values["bench.trace_overhead_pct"] = 100 * share(tr-base, base)
	fmt.Fprintf(os.Stderr, "perfbench: spans in %s.trace.json, profile in %s.pprof\n", prefix, prefix)
	return out, nil
}

func childMain(ctx context.Context, o options) error {
	switch o.child {
	case "suite-fig10":
		return suiteChild(ctx, o)
	case "mm-stream-cores":
		return mmChild(ctx, o)
	}
	return fmt.Errorf("no child mode for %q", o.child)
}

// printResult writes the child's result line.
func printResult(r *childResult) error {
	b, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Printf("%s\n", b)
	return err
}

// benchPid is the Chrome-trace process the benchmark's own spans live
// on; runner.JobTracer uses pid 1.
const benchPid = 2

// spanRecorder adds the benchmark's spans to a runner.JobTracer's
// trace, so one writer carries job, attempt, phase and HTTP spans.
// Spans stay in memory until write.
type spanRecorder struct {
	jt   *dlpsim.JobTracer
	base time.Time
}

func newSpanRecorder() *spanRecorder {
	jt := dlpsim.NewJobTracer(nil)
	// The tracer stamps job events relative to its own creation; base
	// is taken right after, so both timelines agree to microseconds.
	sr := &spanRecorder{jt: jt, base: time.Now()}
	jt.Trace().ProcessName(benchPid, "perfbench")
	return sr
}

func (s *spanRecorder) span(name, cat string, tid int, start, end time.Time, args map[string]any) {
	us := func(t time.Time) float64 { return float64(t.Sub(s.base)) / float64(time.Microsecond) }
	s.jt.Trace().Complete(name, cat, benchPid, tid, us(start), us(end)-us(start), args)
}

func (s *spanRecorder) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := s.jt.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// startProfile begins the traced child's CPU profile.
func startProfile(path string) (stop func() error, err error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return func() error {
		pprof.StopCPUProfile()
		return f.Close()
	}, nil
}

// allocMB is the heap allocated so far, in MiB.
func allocMB() float64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.TotalAlloc) / (1 << 20)
}

// mshrSink folds the engine's sampled metric rows into the mean number
// of L1D MSHR entries in use, summed over SMs, across all sample rows.
type mshrSink struct {
	mu   sync.Mutex
	cols map[string][]int // series -> columns of smN.l1d.mshr.entries
	sum  float64
	rows int
}

var _ metrics.Sink = (*mshrSink)(nil)

func newMSHRSink() *mshrSink { return &mshrSink{cols: map[string][]int{}} }

func (s *mshrSink) Begin(series string, names []string) {
	var cols []int
	for i, n := range names {
		if strings.HasSuffix(n, ".l1d.mshr.entries") {
			cols = append(cols, i)
		}
	}
	s.mu.Lock()
	s.cols[series] = cols
	s.mu.Unlock()
}

func (s *mshrSink) Row(series string, _ uint64, values []uint64) {
	s.mu.Lock()
	for _, c := range s.cols[series] {
		s.sum += float64(values[c])
	}
	s.rows++
	s.mu.Unlock()
}

func (s *mshrSink) mean() float64 { return share(s.sum, float64(s.rows)) }

// addCounters fills the exact simulated per-layer counts, summed over
// the given results.
func addCounters(layer map[string]float64, sims []simSample, mshrMean float64) {
	var sum dlpsim.Stats
	for _, s := range sims {
		sum.Add(s.st)
	}
	layer["sm.warp_insns"] = float64(sum.WarpInsns)
	layer["l1d.accesses"] = float64(sum.L1DAccesses)
	layer["l1d.hit_rate"] = sum.L1DHitRate()
	layer["l1d.bypass_share"] = share(float64(sum.L1DBypasses), float64(sum.L1DAccesses))
	layer["l1d.stall_cycles"] = float64(sum.L1DStalls)
	layer["l1d.vta_hits"] = float64(sum.VTAHits)
	layer["l1d.mshr.entries_mean"] = mshrMean
	layer["icnt.flits"] = float64(sum.ICNTFlits)
	layer["l2.hit_rate"] = share(float64(sum.L2Hits), float64(sum.L2Accesses))
	layer["dram.reads"] = float64(sum.DRAMReads)
	layer["dram.writes"] = float64(sum.DRAMWrites)
}

// zeroLayers sets the per-layer metrics a workload does not exercise.
func zeroLayers(layer map[string]float64, names ...string) {
	for _, n := range names {
		if _, ok := layer[n]; !ok {
			layer[n] = 0
		}
	}
}

var serveLayerNames = []string{
	"serve.queue_wait_ms", "serve.run_ms", "serve.http_ms", "serve.cache_hit_share",
	"serve.coalesced", "serve.rejected", "traffic.submissions", "traffic.distinct_points",
	"traffic.repeat_share", "traffic.store_point_share", "traffic.paper_point_share",
	"bench.gen_lag_p99_ms",
}
