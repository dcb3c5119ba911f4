package main

import (
	"encoding/json"
	"fmt"
	"os"

	dlpsim "repro"
	"repro/internal/conform"
)

// goldenPath is the committed Fig. 10 grid every simulated cell is
// checked against, relative to the checkout root.
const goldenPath = "testdata/golden_paper_suite.json"

// Paper references behind ipc_gain_err: the DLP IPC geomean over the
// 16KB baseline that the paper reports for each application class
// (Fig. 10 and its text), over all nine apps of the class. Only
// suite-fig10 simulates those nine; mm-stream-cores and serve-mix set a
// subset's gain against them, which makes their ipc_gain_err an exact
// behaviour-change sentinel rather than an error against the paper.
const (
	paperGainCI = 1.438
	paperGainCS = 0.998
)

// golden is testdata/golden_paper_suite.json: Stats[i][scheme] for
// Apps[i].
type golden struct {
	Apps    []string                   `json:"apps"`
	Schemes []string                   `json:"schemes"`
	Stats   []map[string]*dlpsim.Stats `json:"stats"`
}

func loadGolden(path string) (*golden, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading golden grid: %w", err)
	}
	var g golden
	if err := json.Unmarshal(b, &g); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	if len(g.Stats) != len(g.Apps) {
		return nil, fmt.Errorf("%s: %d apps but %d stats rows", path, len(g.Apps), len(g.Stats))
	}
	return &g, nil
}

// cell returns the golden counters of app under the named scheme.
func (g *golden) cell(app, scheme string) (*dlpsim.Stats, error) {
	for i, a := range g.Apps {
		if a != app {
			continue
		}
		if st := g.Stats[i][scheme]; st != nil {
			return st, nil
		}
		return nil, fmt.Errorf("golden grid has no %s cell for %s", scheme, app)
	}
	return nil, fmt.Errorf("golden grid has no application %s", app)
}

// sameCounters reports whether got carries exactly want's counters, in
// the conformance corpus's byte form.
func sameCounters(got, want *dlpsim.Stats) (bool, error) {
	a, err := conform.Normalize(got)
	if err != nil {
		return false, err
	}
	b, err := conform.Normalize(want)
	if err != nil {
		return false, err
	}
	return string(a) == string(b), nil
}

// gainErr is |g − ref| / ref, the relative distance of a simulated IPC
// gain from the paper's.
func gainErr(g, ref float64) float64 {
	d := (g - ref) / ref
	if d < 0 {
		return -d
	}
	return d
}
