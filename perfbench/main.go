// Command perfbench is the repository benchmark: it builds nothing
// itself (perfbench/run.sh does) and drives the simulator only through
// its entry points — dlpsim.RunSuite, the engine's run functions, the
// workload generators and a real dlpserved child over HTTP — timing the
// calls into each layer from outside. See README.md.
//
//	perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// The last line of standard output is one JSON object: correct,
// attempted, failed and metrics (the end-to-end metrics with --trace 0,
// the per-layer metrics with --trace 1).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"syscall"
	"time"
)

// runBudget bounds one benchmark invocation; the children and the
// server are killed when it runs out.
const runBudget = 170 * time.Second

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	out      string // directory for traces, profiles and traffic records

	// Child-process mode (set by the parent, not by users).
	child     string
	setupOnly bool
	traceOut  string // path prefix for the child's span file and CPU profile
}

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"peak_rss_mb", "MB"},
	{"job_p50_ms", "ms"},
	{"job_p99_ms", "ms"},
	{"jobs_per_s", "1/s"},
	{"ops_ok_share", "share"},
	{"ipc_gain_err", "ratio"},
}

var perLayer = append([]metricDef{
	{"workloads.gen_s", "s"},
	{"workloads.alloc_mb", "MB"},
	{"runner.queue_wait_ms", "ms"},
	{"runner.overhead_ms", "ms"},
	{"runner.busy_share", "share"},
	{"sim.host_s", "s"},
	{"sim.ns_per_cycle", "ns"},
	{"sim.ns_per_warp_insn_cs", "ns"},
	{"sim.ns_per_warp_insn_ci", "ns"},
	{"sim.stepped_cycle_share", "share"},
	{"sim.barrier_share", "share"},
	{"sim.merge_share", "share"},
	{"host.ns_per_l1d_access", "ns"},
	{"sm.warp_insns", "count"},
	{"l1d.accesses", "count"},
	{"l1d.hit_rate", "share"},
	{"l1d.bypass_share", "share"},
	{"l1d.stall_cycles", "count"},
	{"l1d.vta_hits", "count"},
	{"l1d.mshr.entries_mean", "count"},
	{"icnt.flits", "count"},
	{"l2.hit_rate", "share"},
	{"dram.reads", "count"},
	{"dram.writes", "count"},
	{"serve.queue_wait_ms", "ms"},
	{"serve.run_ms", "ms"},
	{"serve.http_ms", "ms"},
	{"serve.cache_hit_share", "share"},
	{"serve.coalesced", "count"},
	{"serve.rejected", "count"},
	{"traffic.submissions", "count"},
	{"traffic.distinct_points", "count"},
	{"traffic.repeat_share", "share"},
	{"traffic.store_point_share", "share"},
	{"traffic.paper_point_share", "share"},
	{"bench.gen_lag_p99_ms", "ms"},
	{"bench.ops_failed_share", "share"},
	{"bench.trace_overhead_pct", "%"},
}, hostMetricDefs()...)

func hostMetricDefs() []metricDef {
	out := make([]metricDef, len(hostLayers))
	for i, l := range hostLayers {
		out[i] = metricDef{l, "share"}
	}
	return out
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// outcome is what a workload measured, before it is cut down to the
// metric set one invocation reports.
type outcome struct {
	attempted, failed int
	problems          []string
	values            map[string]float64
}

func (o *outcome) fail(format string, args ...any) {
	o.failed++
	if len(o.problems) < 10 {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

var workloadFuncs = map[string]func(context.Context, options) (*outcome, error){
	"suite-fig10":     runSuite,
	"mm-stream-cores": runMM,
	"serve-mix":       runServe,
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload: suite-fig10, mm-stream-cores or serve-mix")
	flag.Int64Var(&o.seed, "seed", 1, "seed the workload's inputs are made from")
	flag.IntVar(&o.seconds, "seconds", 10, "how long one run measures")
	flag.IntVar(&trace, "trace", 0, "1 = traced run reporting the per-layer metrics")
	flag.StringVar(&o.out, "out", filepath.Join(".bench_build", "perfbench"), "directory for traces, profiles and records")
	flag.StringVar(&o.child, "child", "", "internal: run as the named workload's child process")
	flag.BoolVar(&o.setupOnly, "setup-only", false, "internal: child exits after set-up")
	flag.StringVar(&o.traceOut, "trace-out", "", "internal: child records spans and a CPU profile under this prefix")
	flag.Parse()
	o.trace = trace == 1

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if o.child != "" {
		if err := childMain(ctx, o); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench child %s: %v\n", o.child, err)
			os.Exit(1)
		}
		return
	}

	rep, err := run(ctx, o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	b, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
}

func run(ctx context.Context, o options) (*report, error) {
	f, ok := workloadFuncs[o.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", o.workload)
	}
	if o.seconds < 1 {
		return nil, fmt.Errorf("--seconds must be at least 1")
	}
	if _, err := os.Stat(goldenPath); err != nil {
		return nil, fmt.Errorf("run from the root of a checkout: %w", err)
	}
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(ctx, runBudget)
	defer cancel()

	out, err := f(ctx, o)
	if err != nil {
		return nil, err
	}
	for _, p := range out.problems {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %s\n", o.workload, p)
	}
	out.values["ops_ok_share"] = 1 - share(float64(out.failed), float64(out.attempted))
	out.values["bench.ops_failed_share"] = share(float64(out.failed), float64(out.attempted))

	defs := endToEnd
	if o.trace {
		defs = perLayer
	}
	rep := &report{
		Correct:   out.failed == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   make(map[string]metric, len(defs)),
	}
	if rep.Attempted < 1 {
		return nil, fmt.Errorf("%s attempted no operations", o.workload)
	}
	for _, d := range defs {
		v, ok := out.values[d.name]
		if !ok {
			return nil, fmt.Errorf("%s did not measure %s", o.workload, d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0 // no sample to measure, e.g. when every operation failed
		}
		rep.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
	logValues(o.workload, out.values)
	return rep, nil
}

// logValues prints every measured value to standard error, so one run
// shows the numbers behind the metric set it reports.
func logValues(workload string, vals map[string]float64) {
	names := make([]string, 0, len(vals))
	for k := range vals {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %-26s %.6g\n", workload, k, vals[k])
	}
}
