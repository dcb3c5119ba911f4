package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os/exec"
	"strconv"
	"strings"
)

// hostLayers are the host.* per-layer metrics, in report order. Each is
// the share of CPU samples whose leaf frame (self time) lies in the
// layer.
var hostLayers = []string{
	"host.sim", "host.sm", "host.sm.pickwarp", "host.core", "host.policy",
	"host.cache", "host.interconnect", "host.l2", "host.dram", "host.trace",
	"host.mem", "host.runtime.map", "host.runtime.gc",
}

// pkgLayers maps the simulator's packages to their host.* layer.
var pkgLayers = map[string]string{
	"repro/internal/sim":          "host.sim",
	"repro/internal/sm":           "host.sm",
	"repro/internal/core":         "host.core",
	"repro/internal/policy":       "host.policy",
	"repro/internal/cache":        "host.cache",
	"repro/internal/interconnect": "host.interconnect",
	"repro/internal/l2":           "host.l2",
	"repro/internal/dram":         "host.dram",
	"repro/internal/trace":        "host.trace",
	"repro/internal/workloads":    "host.trace",
	"repro/internal/mem":          "host.mem",
}

// gcPrefixes name the runtime's garbage-collector and write-barrier
// functions.
var gcPrefixes = []string{
	"runtime.gcBgMarkWorker", "runtime.gcDrain", "gcWriteBarrier", "runtime.gcMark", "runtime.gcAssist",
	"runtime.scanobject", "runtime.scanblock", "runtime.scanstack", "runtime.scanframe",
	"runtime.greyobject", "runtime.findObject", "runtime.markroot", "runtime.markBits",
	"runtime.(*gcWork)", "runtime.(*gcBits)", "runtime.gcWriteBarrier", "runtime.wbBuf",
	"runtime.bulkBarrier", "runtime.typePointers", "runtime.(*mspan).typePointers",
	"runtime.(*mspan).sweep", "runtime.sweepone", "runtime.bgsweep", "runtime.(*sweepLocked)",
	"runtime.heapBitsSetType", "runtime.(*gcControllerState)", "runtime.spanOf",
}

// profileRow is one line of `go tool pprof -top`: a function and the
// percentage of all samples spent in it (flat, i.e. self time).
type profileRow struct {
	fn   string
	flat float64
}

// pprofTop runs the installed `go tool pprof -top` on a CPU profile.
func pprofTop(profile string) ([]profileRow, error) {
	out, err := exec.Command("go", "tool", "pprof", "-top", "-noinlines", "-nodefraction=0", "-nodecount=1000000", profile).Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %w", err)
	}
	return parseTop(out)
}

// parseTop reads the table `go tool pprof -top` prints: after the
// "flat  flat%   sum%        cum   cum%" header, each row holds those
// five columns and the function name.
func parseTop(out []byte) ([]profileRow, error) {
	var rows []profileRow
	inTable := false
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if !inTable {
			inTable = len(f) == 5 && f[0] == "flat" && f[1] == "flat%"
			continue
		}
		if len(f) < 6 {
			continue
		}
		pct, err := strconv.ParseFloat(strings.TrimSuffix(f[1], "%"), 64)
		if err != nil {
			return nil, fmt.Errorf("pprof row %q: %w", sc.Text(), err)
		}
		rows = append(rows, profileRow{fn: strings.Join(f[5:], " "), flat: pct})
	}
	if !inTable {
		return nil, fmt.Errorf("pprof output has no -top table")
	}
	return rows, sc.Err()
}

// funcPackage returns the import path of a pprof function name such as
// "repro/internal/sm.(*SM).pickWarp".
func funcPackage(fn string) string {
	slash := strings.LastIndex(fn, "/")
	dot := strings.Index(fn[slash+1:], ".")
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

// attribute folds profile rows into the host.* layer shares plus the
// phase engine's barrier and merge shares (all as fractions of all
// samples). host.sm includes host.sm.pickwarp.
func attribute(rows []profileRow) map[string]float64 {
	m := make(map[string]float64, len(hostLayers)+2)
	for _, k := range hostLayers {
		m[k] = 0
	}
	m["sim.barrier_share"] = 0
	m["sim.merge_share"] = 0
	for _, r := range rows {
		s := r.flat / 100
		pkg := funcPackage(r.fn)
		if l, ok := pkgLayers[pkg]; ok {
			m[l] += s
		}
		switch {
		case pkg == "repro/internal/sm" && strings.Contains(r.fn, "pickWarp"):
			m["host.sm.pickwarp"] += s
		case strings.HasPrefix(r.fn, "repro/internal/sim.(*phasePool)") && !strings.HasSuffix(r.fn, ".runSpans"):
			// Spinning or parking at the per-cycle barrier.
			m["sim.barrier_share"] += s
		case r.fn == "repro/internal/sim.(*Engine).step",
			pkg == "repro/internal/interconnect" && strings.HasSuffix(r.fn, ".PushBatch"):
			// The serial lane merge between component phases.
			m["sim.merge_share"] += s
		case strings.HasPrefix(r.fn, "runtime.map") || strings.HasPrefix(r.fn, "internal/runtime/maps."):
			m["host.runtime.map"] += s
		case hasAnyPrefix(r.fn, gcPrefixes):
			m["host.runtime.gc"] += s
		}
	}
	return m
}

func hasAnyPrefix(s string, prefixes []string) bool {
	for _, p := range prefixes {
		if strings.HasPrefix(s, p) {
			return true
		}
	}
	return false
}
