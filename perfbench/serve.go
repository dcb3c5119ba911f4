package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	dlpsim "repro"
	"repro/internal/conform"
	"repro/internal/metrics"
	"repro/internal/serve"
	"repro/internal/sim"
)

// serveSetupSamples is how many dlpserved starts are timed per run.
// One start takes milliseconds, mostly process start, so the median
// needs many of them to hold still from run to run.
const serveSetupSamples = 61

// server is one dlpserved child.
type server struct {
	cmd   *exec.Cmd
	base  string
	setup time.Duration
}

// startServer execs dlpserved on an ephemeral port and waits until
// /healthz answers 200; that wait is the server's set-up time.
func startServer(ctx context.Context, o options, hc *http.Client, n int) (*server, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	addrFile := filepath.Join(o.out, fmt.Sprintf("dlpserved-%d.addr", n))
	if err := os.Remove(addrFile); err != nil && !os.IsNotExist(err) {
		return nil, err
	}
	cmd := exec.CommandContext(ctx, filepath.Join(filepath.Dir(exe), "dlpserved"),
		"-addr", "127.0.0.1:0", "-addr-file", addrFile, "-j", strconv.Itoa(runtime.NumCPU()))
	cmd.Stderr = io.Discard
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting dlpserved: %w", err)
	}
	s := &server{cmd: cmd}
	for {
		if s.base == "" {
			if b, err := os.ReadFile(addrFile); err == nil && bytes.HasSuffix(b, []byte("\n")) {
				s.base = "http://" + strings.TrimSpace(string(b))
			}
		}
		if s.base != "" {
			if resp, err := hc.Get(s.base + "/healthz"); err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					s.setup = time.Since(start)
					return s, nil
				}
			}
		}
		if ctx.Err() != nil || time.Since(start) > 30*time.Second {
			cmd.Process.Kill()
			cmd.Wait()
			return nil, fmt.Errorf("dlpserved did not become healthy")
		}
		// Poll finely: a set-up lasts a few milliseconds.
		time.Sleep(100 * time.Microsecond)
	}
}

// stop drains the server through POST /shutdown, waits for it to exit
// and returns its peak RSS.
func (s *server) stop(hc *http.Client) (float64, error) {
	resp, err := hc.Post(s.base+"/shutdown", "application/json", nil)
	if err == nil {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	done := make(chan error, 1)
	go func() { done <- s.cmd.Wait() }()
	select {
	case werr := <-done:
		if werr != nil {
			return 0, fmt.Errorf("dlpserved exit: %w", werr)
		}
	case <-time.After(60 * time.Second):
		s.cmd.Process.Kill()
		<-done
		return 0, fmt.Errorf("dlpserved did not drain")
	}
	return maxRSSMB(s.cmd.ProcessState), nil
}

// jobResult is one submission as the client saw it.
type jobResult struct {
	due, sent, end time.Time
	ok             bool
	err            string
	started        bool
	cached         bool
	queuedMS       int64
	startedMS      int64
	doneMS         int64
	stats          []byte
}

// servePass is one open-loop window against one server.
type servePass struct {
	jobs     []jobResult
	lagsMS   []float64
	start    time.Time
	rssMB    float64
	setupS   []float64
	counters serve.StatsView
}

func newHTTPClient() *http.Client {
	n := runtime.NumCPU()
	return &http.Client{Transport: &http.Transport{
		Proxy:               nil,
		MaxConnsPerHost:     n,
		MaxIdleConnsPerHost: n,
		MaxIdleConns:        n,
		DisableCompression:  true,
	}}
}

// runServePass starts a server (after timing extra set-ups), drives
// the schedule against it and drains it.
func runServePass(ctx context.Context, o options, sched *schedule, setups int, sr *spanRecorder) (*servePass, error) {
	hc := newHTTPClient()
	defer hc.CloseIdleConnections()
	p := &servePass{}
	for i := 1; i < setups; i++ {
		s, err := startServer(ctx, o, hc, i)
		if err != nil {
			return nil, err
		}
		p.setupS = append(p.setupS, s.setup.Seconds())
		if _, err := s.stop(hc); err != nil {
			return nil, err
		}
	}
	s, err := startServer(ctx, o, hc, 0)
	if err != nil {
		return nil, err
	}
	p.setupS = append(p.setupS, s.setup.Seconds())
	if err := warmUp(ctx, hc, s.base); err != nil {
		s.stop(hc)
		return nil, err
	}

	var events dlpsim.RunEvents
	if sr != nil {
		events = sr.jt.Wrap(nil)
	}
	p.jobs = make([]jobResult, len(sched.Arrivals))
	var wg sync.WaitGroup
	p.start = time.Now()
	for i, a := range sched.Arrivals {
		due := p.start.Add(a.Due)
		time.Sleep(time.Until(due))
		p.lagsMS = append(p.lagsMS, ms(time.Since(due)))
		wg.Add(1)
		go func(i int, a arrival) {
			defer wg.Done()
			p.jobs[i] = submit(ctx, hc, s.base, i, a, sched.Points[a.Point], due, sr, events)
		}(i, a)
	}
	wg.Wait()

	if err := getJSON(ctx, hc, s.base+"/stats", &p.counters); err != nil {
		s.stop(hc)
		return nil, err
	}
	if p.rssMB, err = s.stop(hc); err != nil {
		return nil, err
	}
	return p, nil
}

// warmUp fills a fresh server's per-application kernel and trace-digest
// memos, as a long-running server's would be, by running each paper
// application once under a configuration name the mix never uses: the
// result cache gains nothing the timed window asks for.
func warmUp(ctx context.Context, hc *http.Client, base string) error {
	for _, app := range servePaperApps {
		body := fmt.Sprintf(`{"schema":%d,"policy":"Baseline","config":{"Name":"perfbench-warmup"},"workload":{"app":%q}}`,
			conform.SpecSchema, app)
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/jobs?wait=1", strings.NewReader(body))
		if err != nil {
			return err
		}
		resp, err := hc.Do(req)
		if err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("warm-up %s: %s", app, resp.Status)
		}
	}
	return nil
}

// submit posts one job asynchronously, follows its event log to the
// terminal event and fetches its normalized stats.
func submit(ctx context.Context, hc *http.Client, base string, i int, a arrival, pt point,
	due time.Time, sr *spanRecorder, events dlpsim.RunEvents) jobResult {
	r := jobResult{due: due, sent: time.Now()}
	traced := func(name string, start time.Time) {
		if sr != nil {
			sr.span(name, "http", i+1, start, time.Now(), map[string]any{"tenant": a.Tenant})
		}
	}

	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/jobs", bytes.NewReader(pt.Body))
	if err != nil {
		r.err = err.Error()
		return r
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Tenant", a.Tenant)
	t := time.Now()
	resp, err := hc.Do(req)
	if err != nil {
		r.err = fmt.Sprintf("POST /jobs: %v", err)
		return r
	}
	var view serve.JobView
	err = json.NewDecoder(resp.Body).Decode(&view)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	traced("POST /jobs", t)
	if resp.StatusCode != http.StatusAccepted || err != nil {
		r.err = fmt.Sprintf("POST /jobs: %s", resp.Status)
		return r
	}
	if events != nil {
		events(dlpsim.RunEvent{Kind: dlpsim.JobQueued, Index: i, Label: pt.Label})
	}

	t = time.Now()
	terminal, err := followEvents(ctx, hc, base+"/jobs/"+view.ID+"/events?format=jsonl", &r, func(ev serve.JobEvent) {
		if events != nil && ev.Kind == "started" {
			events(dlpsim.RunEvent{Kind: dlpsim.JobStarted, Index: i, Label: pt.Label})
		}
	})
	traced("GET /jobs/{id}/events", t)
	if events != nil {
		events(dlpsim.RunEvent{Kind: dlpsim.JobDone, Index: i, Label: pt.Label, Cached: r.cached})
	}
	if err != nil {
		r.err = err.Error()
		return r
	}
	if terminal != "done" {
		r.err = fmt.Sprintf("job %s ended %s", view.ID, terminal)
		return r
	}

	t = time.Now()
	r.stats, err = getBytes(ctx, hc, base+"/jobs/"+view.ID+"/stats")
	traced("GET /jobs/{id}/stats", t)
	if err != nil {
		r.err = err.Error()
		return r
	}
	r.end = time.Now()
	r.ok = true
	return r
}

// followEvents reads a job's JSONL event log until its terminal event.
func followEvents(ctx context.Context, hc *http.Client, url string, r *jobResult, each func(serve.JobEvent)) (string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return "", err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return "", fmt.Errorf("GET events: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("GET events: %s", resp.Status)
	}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var ev serve.JobEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return "", fmt.Errorf("job event %q: %w", sc.Text(), err)
		}
		each(ev)
		switch ev.Kind {
		case "queued":
			r.queuedMS = ev.TMS
		case "started":
			r.started, r.startedMS = true, ev.TMS
		case "done", "failed", "cancelled":
			r.doneMS, r.cached = ev.TMS, ev.Cached
			io.Copy(io.Discard, resp.Body)
			return ev.Kind, nil
		}
	}
	if err := sc.Err(); err != nil {
		return "", fmt.Errorf("reading events: %w", err)
	}
	return "", fmt.Errorf("event log ended without a terminal event")
}

func getBytes(ctx context.Context, hc *http.Client, url string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return nil, fmt.Errorf("GET %s: %w", url, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("GET %s: %w", url, err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return b, nil
}

func getJSON(ctx context.Context, hc *http.Client, url string, v any) error {
	b, err := getBytes(ctx, hc, url)
	if err != nil {
		return err
	}
	return json.Unmarshal(b, v)
}

// verified is one distinct served point re-simulated in process.
type verified struct {
	want []byte
	st   *dlpsim.Stats
	host time.Duration
}

// verify re-simulates every distinct point that was served, on nproc
// goroutines, and returns the reference result per point index.
func verify(ctx context.Context, sched *schedule, passes []*servePass, sink metrics.Sink) (map[int]*verified, error) {
	need := map[int]bool{}
	for _, p := range passes {
		for i, j := range p.jobs {
			if j.ok {
				need[sched.Arrivals[i].Point] = true
			}
		}
	}
	todo := make(chan int, len(need))
	for p := range need {
		todo <- p
	}
	close(todo)
	out := make(map[int]*verified, len(need))
	var (
		mu       sync.Mutex
		firstErr error
		wg       sync.WaitGroup
	)
	for w := 0; w < runtime.NumCPU(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for p := range todo {
				v, err := resimulate(ctx, sched.Points[p], sink)
				mu.Lock()
				if err != nil && firstErr == nil {
					firstErr = fmt.Errorf("re-simulating %s: %w", sched.Points[p].Label, err)
				}
				out[p] = v
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return out, firstErr
}

func resimulate(ctx context.Context, pt point, sink metrics.Sink) (*verified, error) {
	sp, err := conform.UnmarshalSpec(pt.Body)
	if err != nil {
		return nil, err
	}
	cfg, pol, k, err := sp.Build()
	if err != nil {
		return nil, err
	}
	opts := sim.Options{MaxCycles: sp.MaxCycles}
	if sink != nil {
		opts.Metrics = &metrics.Config{Sink: sink, Label: pt.Label}
	}
	start := time.Now()
	st, err := sim.RunOnce(ctx, cfg, pol, k, opts)
	host := time.Since(start)
	if err != nil {
		return nil, err
	}
	b, err := conform.Normalize(st)
	if err != nil {
		return nil, err
	}
	return &verified{want: b, st: st, host: host}, nil
}

// runServe is the serve-mix workload: an open loop of seeded
// submissions at serveRate against dlpserved -j nproc with three
// tenants, using at most nproc keep-alive connections.
func runServe(ctx context.Context, o options) (*outcome, error) {
	sched, err := buildSchedule(o.seed, o.seconds)
	if err != nil {
		return nil, err
	}
	g, err := loadGolden(goldenPath)
	if err != nil {
		return nil, err
	}
	var sr *spanRecorder
	var sink *mshrSink
	setups := serveSetupSamples
	var untraced *servePass
	if o.trace {
		// The untraced pass is the baseline the tracing overhead is
		// measured against.
		if untraced, err = runServePass(ctx, o, sched, 1, nil); err != nil {
			return nil, err
		}
		sr, sink, setups = newSpanRecorder(), newMSHRSink(), 1
	}
	p, err := runServePass(ctx, o, sched, setups, sr)
	if err != nil {
		return nil, err
	}
	var vsink metrics.Sink // stays a nil interface when untraced
	if sink != nil {
		vsink = sink
	}
	passes := []*servePass{p}
	if untraced != nil {
		passes = append(passes, untraced)
	}
	ref, err := verify(ctx, sched, passes, vsink)
	if err != nil {
		return nil, err
	}

	out := &outcome{values: map[string]float64{}}
	for _, q := range passes[1:] {
		checkServed(out, sched, q, ref)
	}
	ok := checkServed(out, sched, p, ref)
	var latMS, queueMS, runMS, httpMS []float64
	var cached int
	last := p.start
	for _, j := range ok {
		latMS = append(latMS, ms(j.end.Sub(j.due)))
		httpMS = append(httpMS, ms(j.end.Sub(j.sent))-float64(j.doneMS))
		if j.started {
			queueMS = append(queueMS, float64(j.startedMS-j.queuedMS))
			runMS = append(runMS, float64(j.doneMS-j.startedMS))
		}
		if j.cached {
			cached++
		}
		if j.end.After(last) {
			last = j.end
		}
	}
	wall := last.Sub(p.start).Seconds()
	gain, err := servedDLPGain(g, sched, ref)
	if err != nil {
		return nil, err
	}
	v := out.values
	v["setup_s"] = median(p.setupS)
	v["wall_s"] = wall
	v["peak_rss_mb"] = p.rssMB
	v["job_p50_ms"] = median(latMS)
	v["job_p99_ms"] = tail(latMS)
	v["jobs_per_s"] = share(float64(len(latMS)), wall)
	v["ipc_gain_err"] = gainErr(gain, paperGainCS)

	rec := traffic(sched, ref)
	if err := writeTraffic(o, rec); err != nil {
		return nil, err
	}
	for k, x := range rec {
		v[k] = x
	}
	v["serve.queue_wait_ms"] = mean(queueMS)
	v["serve.run_ms"] = mean(runMS)
	v["serve.http_ms"] = mean(httpMS)
	v["serve.cache_hit_share"] = share(float64(cached), float64(len(latMS)))
	v["serve.coalesced"] = float64(p.counters.Cache.Coalesced)
	v["serve.rejected"] = float64(p.counters.Rejected)
	v["bench.gen_lag_p99_ms"] = tail(p.lagsMS)

	var sims []simSample
	for pi, r := range ref {
		class := "synth"
		if sched.Points[pi].Paper {
			class = "CS"
		}
		sims = append(sims, simSample{r.st, class, r.host})
	}
	simLayerRates(v, sims)
	mshr := 0.0
	if sink != nil {
		mshr = sink.mean()
	}
	addCounters(v, sims, mshr)
	zeroLayers(v, "workloads.gen_s", "workloads.alloc_mb", "runner.queue_wait_ms",
		"runner.overhead_ms", "runner.busy_share", "sim.stepped_cycle_share",
		"sim.barrier_share", "sim.merge_share")
	zeroLayers(v, hostLayers...)
	if o.trace {
		base := median(untracedLatencies(untraced))
		v["bench.trace_overhead_pct"] = 100 * share(v["job_p50_ms"]-base, base)
		prefix := filepath.Join(o.out, fmt.Sprintf("%s-seed%d", o.workload, o.seed))
		if err := sr.write(prefix + ".trace.json"); err != nil {
			return nil, err
		}
		fmt.Fprintf(os.Stderr, "perfbench: spans in %s.trace.json\n", prefix)
	}
	return out, nil
}

// checkServed counts a pass's submissions, fails every one that did not
// complete or whose stats differ from the in-process re-simulation, and
// returns the rest.
func checkServed(out *outcome, sched *schedule, p *servePass, ref map[int]*verified) []jobResult {
	var ok []jobResult
	for i, j := range p.jobs {
		out.attempted++
		a := sched.Arrivals[i]
		switch {
		case !j.ok:
			out.fail("%s (%s): %s", sched.Points[a.Point].Label, a.Tenant, j.err)
		case !bytes.Equal(j.stats, ref[a.Point].want):
			out.fail("%s (%s): served stats differ from the in-process re-simulation",
				sched.Points[a.Point].Label, a.Tenant)
		default:
			ok = append(ok, j)
		}
	}
	return ok
}

func untracedLatencies(p *servePass) []float64 {
	var out []float64
	for _, j := range p.jobs {
		if j.ok {
			out = append(out, ms(j.end.Sub(j.due)))
		}
	}
	return out
}

// servedDLPGain is the geometric-mean IPC gain of the served DLP paper
// points over the golden 16KB-baseline cell of the same application.
func servedDLPGain(g *golden, sched *schedule, ref map[int]*verified) (float64, error) {
	var logSum float64
	var n int
	for pi, r := range ref {
		pt := sched.Points[pi]
		if !pt.Paper || pt.Policy != dlpsim.DLP.String() {
			continue
		}
		base, err := g.cell(pt.App, "16KB(Baseline)")
		if err != nil {
			return 0, err
		}
		logSum += math.Log(r.st.IPC() / base.IPC())
		n++
	}
	if n == 0 {
		return 0, fmt.Errorf("serve-mix served no DLP paper point")
	}
	return math.Exp(logSum / float64(n)), nil
}

// traffic is the run's measured traffic record: how many submissions
// repeated an earlier point, and how many of the distinct points served
// carried stores or were paper applications, each with its base count.
func traffic(sched *schedule, ref map[int]*verified) map[string]float64 {
	var repeats, stores, paper int
	for _, a := range sched.Arrivals {
		if a.Repeat {
			repeats++
		}
	}
	for pi, r := range ref {
		if r.st.StoreAccesses > 0 {
			stores++
		}
		if sched.Points[pi].Paper {
			paper++
		}
	}
	return map[string]float64{
		"traffic.submissions":       float64(len(sched.Arrivals)),
		"traffic.distinct_points":   float64(len(ref)),
		"traffic.repeat_share":      share(float64(repeats), float64(len(sched.Arrivals))),
		"traffic.store_point_share": share(float64(stores), float64(len(ref))),
		"traffic.paper_point_share": share(float64(paper), float64(len(ref))),
	}
}

// writeTraffic keeps the traffic record of every serve-mix run beside
// the run's other outputs.
func writeTraffic(o options, rec map[string]float64) error {
	b, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(o.out, fmt.Sprintf("%s-seed%d.traffic.json", o.workload, o.seed))
	fmt.Fprintf(os.Stderr, "perfbench: traffic record in %s\n", path)
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
