package sm

import (
	"testing"

	"repro/internal/addr"
	"repro/internal/config"
	"repro/internal/mem"
	"repro/internal/trace"
)

// storeBench builds an SM with one resident warp holding a single
// 32-lane store (one coalesced line) and issues it once so every free
// list is primed. The returned step function runs one full issue+drain
// round: re-issue the store, push it through the L1D, and recycle the
// request — the complete LD/ST issue path.
func storeBench() (s *SM, step func()) {
	cfg := config.Baseline()
	pool := mem.NewPool()
	s = New(cfg, 0, config.PolicyBaseline, pool)
	addrs := make([]addr.Addr, 32)
	for i := range addrs {
		addrs[i] = addr.Addr(i * 4) // 32 lanes, one 128B line
	}
	tr := &trace.WarpTrace{Instrs: []trace.Instr{trace.NewStore(1, addrs)}}
	assignBlock(s, tr)
	now := uint64(0)
	tick := func() {
		now++
		s.Tick(now)
		for {
			r := s.L1D().PopOutgoing()
			if r == nil {
				break
			}
			pool.Put(r)
		}
	}
	tick() // admit + issue
	tick() // drain; primes the memInstr/request free lists
	step = func() {
		// Rewind the warp so it issues the same store again. The rewind
		// itself is not a tracked scheduler event, so wake explicitly.
		s.slots[0].cur.Rewind()
		s.finishedWarps--
		s.wakeSchedulers()
		tick() // issue
		tick() // drain
	}
	return s, step
}

// BenchmarkIssueStorePath measures the steady-state LD/ST issue path:
// scheduler pick, coalescing, pooled request construction, and the L1D
// store drain. allocs/op must be 0 (see TestIssueStorePathAllocs).
func BenchmarkIssueStorePath(b *testing.B) {
	b.ReportAllocs()
	_, step := storeBench()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
}

// TestIssueStorePathAllocs pins the LD/ST issue path allocation-free in
// steady state: every request comes from the pool, every memInstr from
// the SM's free list, and the coalescer writes into a reused buffer.
func TestIssueStorePathAllocs(t *testing.T) {
	_, step := storeBench()
	for i := 0; i < 64; i++ {
		step() // settle free-list and queue capacities
	}
	if avg := testing.AllocsPerRun(200, step); avg != 0 {
		t.Errorf("LD/ST issue path allocates %.2f per round, want 0", avg)
	}
}
