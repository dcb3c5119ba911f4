package sm

import (
	"testing"

	"repro/internal/addr"
	"repro/internal/config"
	"repro/internal/mem"
	"repro/internal/trace"
)

// runAlone steps the SM with a perfect zero-latency memory behind the
// L1D until Done or the cycle budget runs out; returns cycles used.
func runAlone(t *testing.T, s *SM, budget int) uint64 {
	t.Helper()
	for now := uint64(1); now <= uint64(budget); now++ {
		s.Tick(now)
		for {
			out := s.L1D().PopOutgoing()
			if out == nil {
				break
			}
			if !out.Store {
				s.L1D().OnResponse(out)
			}
		}
		if s.Done() {
			return now
		}
	}
	t.Fatalf("SM did not finish in %d cycles", budget)
	return 0
}

// assignBlock queues one thread block of the given warps on s through
// the same stream launch path the engine uses.
func assignBlock(s *SM, warps ...*trace.WarpTrace) {
	k := &trace.Kernel{Name: "test", Blocks: []*trace.Block{{Warps: warps}}}
	s.AssignStream(trace.NewKernelStream(k), 0)
}

func seqLoad(pc uint32, line int) trace.Instr {
	return trace.NewLoad(pc, []addr.Addr{addr.Addr(line * 128)})
}

func computeWarp(n, latency int) *trace.WarpTrace {
	w := &trace.WarpTrace{}
	for i := 0; i < n; i++ {
		w.Instrs = append(w.Instrs, trace.NewCompute(uint32(i), latency, 32))
	}
	return w
}

func TestComputeOnlyWarpCompletes(t *testing.T) {
	cfg := config.Baseline()
	s := New(cfg, 0, config.PolicyBaseline, nil)
	assignBlock(s, computeWarp(10, 4))
	cycles := runAlone(t, s, 1000)
	st := s.Stats()
	if st.WarpInsns != 10 {
		t.Errorf("WarpInsns = %d, want 10", st.WarpInsns)
	}
	if st.Instructions != 320 {
		t.Errorf("Instructions = %d, want 320", st.Instructions)
	}
	// 10 dependent instructions of latency 4: at least 40 cycles.
	if cycles < 40 {
		t.Errorf("finished in %d cycles, violates dependency latency", cycles)
	}
}

func TestTwoWarpsOverlapLatency(t *testing.T) {
	cfg := config.Baseline()
	one := New(cfg, 0, config.PolicyBaseline, nil)
	assignBlock(one, computeWarp(50, 8))
	soloCycles := runAlone(t, one, 10000)

	two := New(cfg, 0, config.PolicyBaseline, nil)
	assignBlock(two, computeWarp(50, 8), computeWarp(50, 8))
	dualCycles := runAlone(t, two, 10000)
	// The second warp hides in the first's latency: far less than 2x.
	if dualCycles > soloCycles+soloCycles/4 {
		t.Errorf("two warps took %d cycles vs %d solo: no latency hiding", dualCycles, soloCycles)
	}
}

func TestLoadRoundTrip(t *testing.T) {
	cfg := config.Baseline()
	s := New(cfg, 0, config.PolicyBaseline, nil)
	w := &trace.WarpTrace{Instrs: []trace.Instr{
		seqLoad(0, 1),
		seqLoad(1, 1), // second load hits in L1D
	}}
	assignBlock(s, w)
	runAlone(t, s, 1000)
	st := s.L1D().Stats()
	if st.L1DAccesses != 2 || st.L1DMisses != 1 || st.L1DHits != 1 {
		t.Errorf("accesses/misses/hits = %d/%d/%d", st.L1DAccesses, st.L1DMisses, st.L1DHits)
	}
}

func TestCoalescedLoadCountsLines(t *testing.T) {
	cfg := config.Baseline()
	s := New(cfg, 0, config.PolicyBaseline, nil)
	// 32 lanes across 4 lines.
	addrs := make([]addr.Addr, 32)
	for i := range addrs {
		addrs[i] = addr.Addr(i * 16)
	}
	w := &trace.WarpTrace{Instrs: []trace.Instr{trace.NewLoad(0, addrs)}}
	assignBlock(s, w)
	runAlone(t, s, 1000)
	if got := s.L1D().Stats().L1DAccesses; got != 4 {
		t.Errorf("L1D accesses = %d, want 4 coalesced lines", got)
	}
}

func TestStoreDoesNotBlockWarp(t *testing.T) {
	cfg := config.Baseline()
	s := New(cfg, 0, config.PolicyBaseline, nil)
	w := &trace.WarpTrace{Instrs: []trace.Instr{
		trace.NewStore(0, []addr.Addr{0}),
		trace.NewCompute(1, 2, 32),
	}}
	assignBlock(s, w)
	cycles := runAlone(t, s, 100)
	if cycles > 20 {
		t.Errorf("store stalled the warp: %d cycles", cycles)
	}
	if got := s.L1D().Stats().StoreAccesses; got != 1 {
		t.Errorf("StoreAccesses = %d", got)
	}
}

func TestBlockAdmissionRespectsCapacity(t *testing.T) {
	cfg := config.Baseline()
	cfg.MaxWarpsPerSM = 2
	s := New(cfg, 0, config.PolicyBaseline, nil)
	// Three blocks of 2 warps each: only one resident at a time.
	for i := 0; i < 3; i++ {
		assignBlock(s, computeWarp(5, 2), computeWarp(5, 2))
	}
	runAlone(t, s, 10000)
	if got := s.Stats().WarpInsns; got != 30 {
		t.Errorf("WarpInsns = %d, want 30 (all blocks ran)", got)
	}
}

func TestOversizedBlockNeverAdmitted(t *testing.T) {
	cfg := config.Baseline()
	cfg.MaxWarpsPerSM = 1
	s := New(cfg, 0, config.PolicyBaseline, nil)
	assignBlock(s, computeWarp(1, 1), computeWarp(1, 1))
	for now := uint64(1); now < 100; now++ {
		s.Tick(now)
	}
	if s.Done() {
		t.Error("SM claims Done with an unadmittable block")
	}
	if s.Stats().WarpInsns != 0 {
		t.Error("oversized block partially executed")
	}
}

func TestGTOPrefersOldestWarp(t *testing.T) {
	cfg := config.Baseline()
	cfg.SchedulersPerSM = 1
	s := New(cfg, 0, config.PolicyBaseline, nil)
	// Warp 0 (older) and warp 1 (younger), both always ready.
	assignBlock(s, computeWarp(3, 1), computeWarp(3, 1))
	s.Tick(1)
	// After one cycle exactly one instruction issued, and it must belong
	// to the oldest warp (slot 0): its pc advanced.
	if s.Stats().WarpInsns != 1 {
		t.Fatalf("issued %d instructions in one cycle with 1 scheduler", s.Stats().WarpInsns)
	}
	if s.slots[0].cur.Index() != 1 || s.slots[1].cur.Index() != 0 {
		t.Errorf("GTO issued from warp %v, want oldest (slot 0): pcs=%d,%d",
			s.slots[1].cur.Index() == 1, s.slots[0].cur.Index(), s.slots[1].cur.Index())
	}
}

func TestDualSchedulersIssueTwoPerCycle(t *testing.T) {
	cfg := config.Baseline()
	s := New(cfg, 0, config.PolicyBaseline, nil)
	assignBlock(s, computeWarp(10, 1), computeWarp(10, 1), computeWarp(10, 1), computeWarp(10, 1))
	s.Tick(1)
	if got := s.Stats().WarpInsns; got != 2 {
		t.Errorf("issued %d warp instructions in one cycle, want 2 (dual schedulers)", got)
	}
}

func TestMemResponseForIdleWarpPanics(t *testing.T) {
	cfg := config.Baseline()
	s := New(cfg, 0, config.PolicyBaseline, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on orphan response")
		}
	}()
	s.onMemResponse(&mem.Request{Warp: 3})
}

func TestWarpThrottleLimitsConcurrency(t *testing.T) {
	cfg := config.Baseline()
	cfg.SchedulersPerSM = 2
	cfg.MaxActiveWarps = 1
	s := New(cfg, 0, config.PolicyBaseline, nil)
	assignBlock(s, computeWarp(10, 1), computeWarp(10, 1), computeWarp(10, 1))
	s.Tick(1)
	// Only the oldest warp may issue, so despite two schedulers only one
	// instruction goes out per cycle.
	if got := s.Stats().WarpInsns; got != 1 {
		t.Errorf("issued %d instructions with a 1-warp throttle", got)
	}
	// The throttle follows retirement: eventually all warps finish.
	runAlone(t, s, 1000)
	if got := s.Stats().WarpInsns; got != 30 {
		t.Errorf("WarpInsns = %d, want 30", got)
	}
}

func TestWarpThrottleDisabledByDefault(t *testing.T) {
	cfg := config.Baseline()
	s := New(cfg, 0, config.PolicyBaseline, nil)
	assignBlock(s, computeWarp(10, 1), computeWarp(10, 1), computeWarp(10, 1), computeWarp(10, 1))
	s.Tick(1)
	if got := s.Stats().WarpInsns; got != 2 {
		t.Errorf("issued %d instructions, want 2 (dual schedulers, no throttle)", got)
	}
}

func TestLRRRotatesThroughWarps(t *testing.T) {
	cfg := config.Baseline()
	cfg.SchedulersPerSM = 1
	cfg.Scheduler = config.SchedLRR
	s := New(cfg, 0, config.PolicyBaseline, nil)
	assignBlock(s, computeWarp(4, 1), computeWarp(4, 1), computeWarp(4, 1))
	// With latency-1 computes all three warps stay ready; LRR must visit
	// warp 0, 1, 2, 0 over the first four cycles.
	want := []int{1, 1, 1, 2} // expected pc of slot 0 after each tick? track issues instead
	_ = want
	order := []int{}
	pcs := []int{0, 0, 0}
	for now := uint64(1); now <= 6; now++ {
		s.Tick(now)
		for slot := 0; slot < 3; slot++ {
			if s.slots[slot] != nil && s.slots[slot].cur.Index() != pcs[slot] {
				order = append(order, slot)
				pcs[slot] = s.slots[slot].cur.Index()
			}
		}
	}
	wantOrder := []int{0, 1, 2, 0, 1, 2}
	if len(order) < len(wantOrder) {
		t.Fatalf("issue order %v too short", order)
	}
	for i := range wantOrder {
		if order[i] != wantOrder[i] {
			t.Fatalf("LRR issue order %v, want prefix %v", order, wantOrder)
		}
	}
}

func TestLRRCompletesKernel(t *testing.T) {
	cfg := config.Baseline()
	cfg.Scheduler = config.SchedLRR
	s := New(cfg, 0, config.PolicyBaseline, nil)
	assignBlock(s,
		computeWarp(10, 3), computeWarp(10, 3),
		&trace.WarpTrace{Instrs: []trace.Instr{seqLoad(0, 1), seqLoad(1, 2), seqLoad(2, 1)}},
	)
	runAlone(t, s, 5000)
	if got := s.Stats().WarpInsns; got != 23 {
		t.Errorf("WarpInsns = %d, want 23", got)
	}
}

func TestSchedPolicyString(t *testing.T) {
	if config.SchedGTO.String() != "GTO" || config.SchedLRR.String() != "LRR" {
		t.Error("SchedPolicy strings wrong")
	}
	if config.SchedPolicy(9).String() != "SchedPolicy(9)" {
		t.Error("unknown SchedPolicy string wrong")
	}
}
