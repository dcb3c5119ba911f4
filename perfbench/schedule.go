package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"time"

	dlpsim "repro"
	"repro/internal/conform"
	"repro/internal/workloads"
)

// serveRate is serve-mix's offered load in submissions per second:
// about a quarter of the throughput capacity measured on a 2-vCPU x86
// host, where the latency tail is still steady from seed to seed (see
// README.md for the measurement).
const serveRate = 120

// serveTenants submit the traffic; each arrival picks one at random.
var serveTenants = []string{"alpha", "beta", "gamma"}

// servePaperApps are the compute-bound (CS) paper applications whose
// points ride in the mix under every registered policy: the five
// cheapest CS apps, so the simulator stays a minor cost. Their 35
// points are about 3% of the arrivals, which puts the p99 inside their
// latencies rather than on the edge of the synthetic points' tail.
var servePaperApps = []string{"HS", "SC", "BP", "SRAD", "BT"}

// point is one distinct submission body.
type point struct {
	Body   []byte
	Label  string
	Paper  bool
	App    string // paper points only
	Policy string
}

// arrival is one submission of the open loop.
type arrival struct {
	Due    time.Duration // offset from the start of the window
	Tenant string
	Point  int // index into schedule.Points
	Repeat bool
}

// schedule is serve-mix's traffic for one seed: arrivals at a fixed
// rate, about half of them repeating an earlier point. The fresh points
// are every (paper app, policy) pair plus seeded tiny synthetic specs,
// about half of which carry stores.
type schedule struct {
	Arrivals []arrival
	Points   []point
}

func buildSchedule(seed int64, seconds int) (*schedule, error) {
	r := rand.New(rand.NewSource(seed))
	n := serveRate * seconds
	if n < 2 {
		return nil, fmt.Errorf("serve-mix: %d/s over %ds submits fewer than 2 jobs", serveRate, seconds)
	}
	fresh := (n + 1) / 2

	var paper []point
	for _, app := range servePaperApps {
		for _, p := range dlpsim.Policies() {
			sp := &conform.Spec{Schema: conform.SpecSchema, Policy: p.String(),
				Workload: conform.WorkloadRef{App: app}}
			pt, err := newPoint(sp, fmt.Sprintf("%s under %s", app, p), true)
			if err != nil {
				return nil, err
			}
			pt.App, pt.Policy = app, p.String()
			paper = append(paper, pt)
		}
	}
	r.Shuffle(len(paper), func(i, j int) { paper[i], paper[j] = paper[j], paper[i] })
	if len(paper) > fresh {
		paper = paper[:fresh]
	}

	// Paper points arrive evenly spaced, so each seed's tail holds the
	// same number of them instead of however many a draw clusters; the
	// other arrivals are tiny synthetic points and repeats in seeded
	// order.
	const (
		synthFresh = iota
		repeatOld
		paperFresh
	)
	kind := make([]int, n)
	for k := range paper {
		kind[(2*k+1)*n/(2*len(paper))] = paperFresh
	}
	var slots []int
	for i, k := range kind {
		if k != paperFresh {
			slots = append(slots, i)
		}
	}
	synth := fresh - len(paper)
	for j, i := range slots {
		if j >= synth {
			kind[i] = repeatOld
		}
	}
	r.Shuffle(len(slots), func(a, b int) {
		kind[slots[a]], kind[slots[b]] = kind[slots[b]], kind[slots[a]]
	})
	if kind[0] == repeatOld {
		// Nothing precedes the first arrival to repeat.
		for _, i := range slots {
			if kind[i] == synthFresh {
				kind[0], kind[i] = synthFresh, repeatOld
				break
			}
		}
	}

	s := &schedule{}
	for i := 0; i < n; i++ {
		a := arrival{
			Due:    time.Duration(i) * time.Second / serveRate,
			Tenant: serveTenants[r.Intn(len(serveTenants))],
		}
		switch kind[i] {
		case repeatOld:
			a.Repeat, a.Point = true, r.Intn(len(s.Points))
		case paperFresh:
			a.Point = len(s.Points)
			s.Points, paper = append(s.Points, paper[0]), paper[1:]
		default:
			pt, err := synthPoint(r)
			if err != nil {
				return nil, err
			}
			a.Point = len(s.Points)
			s.Points = append(s.Points, pt)
		}
		s.Arrivals = append(s.Arrivals, a)
	}
	return s, nil
}

// synthPoint draws a tiny synthetic point: a few blocks of short warps
// over a small footprint, a seeded pattern mix, stores in about half
// of the points, and a random registered policy.
func synthPoint(r *rand.Rand) (point, error) {
	sy := &workloads.SynthSpec{
		Seed:            r.Uint64(),
		Blocks:          2 + r.Intn(5),
		WarpsPerBlock:   2 + r.Intn(3),
		MemInsnsPerWarp: 16 + r.Intn(33),
		ComputeRun:      r.Intn(5),
		FootprintLines:  32 + r.Intn(225),
		StreamPct:       1 + r.Intn(3),
		StridePct:       r.Intn(3),
		GatherPct:       r.Intn(3),
		HotPct:          r.Intn(3),
		ConflictPct:     r.Intn(3),
	}
	if r.Intn(2) == 1 {
		sy.StorePct = 5 + r.Intn(36)
	}
	pols := dlpsim.Policies()
	pol := pols[r.Intn(len(pols))].String()
	sp := &conform.Spec{Schema: conform.SpecSchema, Policy: pol,
		Workload: conform.WorkloadRef{Synth: sy}}
	pt, err := newPoint(sp, fmt.Sprintf("synth(seed=%d) under %s", sy.Seed, pol), false)
	pt.Policy = pol
	return pt, err
}

func newPoint(sp *conform.Spec, label string, paper bool) (point, error) {
	b, err := json.Marshal(sp)
	if err != nil {
		return point{}, err
	}
	return point{Body: b, Label: label, Paper: paper}, nil
}
