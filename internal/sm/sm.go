// Package sm models one streaming multiprocessor: a warp pool fed by
// thread-block dispatch, dual greedy-then-oldest (GTO) warp schedulers,
// in-order per-warp execution, and a load/store unit that coalesces
// memory instructions and feeds the L1D one line request per cycle,
// blocking in its pipeline register when the cache stalls (§2).
package sm

import (
	"fmt"

	"repro/internal/addr"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/stats"
	"repro/internal/trace"
)

// warp is one resident warp's execution state. Its position in the
// instruction stream is a trace.Cursor over the launched trace.Stream.
type warp struct {
	cur         trace.Cursor
	busyUntil   uint64
	outstanding int  // memory requests in flight
	inLDST      bool // a memory instruction of this warp occupies the LD/ST queue
	slot        int
	age         uint64 // dispatch order; smaller is older (GTO tie-break)
	block       *residentBlock
}

func (w *warp) done(now uint64) bool {
	return w.cur.Exhausted() && w.outstanding == 0 && !w.inLDST &&
		w.busyUntil <= now
}

// ready reports whether the warp can issue at cycle now.
func (w *warp) ready(now uint64) bool {
	return !w.cur.Exhausted() && w.busyUntil <= now &&
		w.outstanding == 0 && !w.inLDST
}

type residentBlock struct {
	liveWarps int
}

// memInstr is one coalesced memory instruction being drained into the L1D.
type memInstr struct {
	w    *warp
	reqs []*mem.Request
	next int
}

// pendingBlock is one dispatched-but-unadmitted thread block of a
// stream.
type pendingBlock struct {
	src   trace.Stream
	idx   int // block index within src
	warps int // warp count, known without touching the trace
}

// SM is one streaming multiprocessor.
type SM struct {
	cfg   *config.Config
	id    int
	l1d   *core.L1D
	st    *stats.Stats
	slots []*warp

	pendingBlocks []pendingBlock
	ageCounter    uint64
	nextReqID     uint64

	// chunks recycles stream-refill buffers across this SM's warps.
	chunks *trace.ChunkPool

	ldst    []*memInstr
	ldstCap int
	greedy  []int // per-scheduler last-issued slot, -1 when none
	now     uint64

	// liveWarps counts occupied warp slots — maintained at admit/retire
	// so Done() is a counter comparison, not a slot sweep.
	liveWarps int

	// finishedWarps counts resident warps whose trace is exhausted
	// (pc past the end). retireWarps sweeps the slots only while this is
	// nonzero; trace exhaustion is a necessary condition for done().
	finishedWarps int

	// schedSleepUntil[k] is a proven lower bound on the next cycle at
	// which scheduler k's pick scan can succeed. It is set when a scan
	// comes up empty (to the minimum busyUntil among the scheduler's
	// unblocked warps, or "never" when every candidate waits on an
	// event), and reset to zero by every event that can unblock a warp:
	// a memory response, an LD/ST-queue drain, block admission, or warp
	// retirement. While now < schedSleepUntil[k] the scan is skipped —
	// it could only fail — making idle schedulers O(1) per cycle.
	schedSleepUntil []uint64

	// Free lists for the steady-state issue path: completed load
	// requests return via pool, drained memInstrs via freeMI, retired
	// warps/blocks via freeWarps/freeBlocks. lineBuf is the coalescer's
	// scratch buffer. The pool is owned by this SM alone — the engine
	// gives every SM its own, so Tick can Get/Put on it while other
	// shards tick concurrently; stores consumed by L2 partitions come
	// home through the engine's serial recycler drain, never directly.
	pool       *mem.Pool
	freeMI     []*memInstr
	freeWarps  []*warp
	freeBlocks []*residentBlock
	lineBuf    []addr.Addr
}

// New builds an SM with its own L1D under the given policy. pool, which
// may be nil, recycles completed memory requests.
func New(cfg *config.Config, id int, policy config.Policy, pool *mem.Pool) *SM {
	s := &SM{
		cfg:     cfg,
		id:      id,
		st:      &stats.Stats{},
		slots:   make([]*warp, cfg.MaxWarpsPerSM),
		ldstCap: 48,
		greedy:  make([]int, cfg.SchedulersPerSM),
		pool:    pool,
		chunks:  trace.NewChunkPool(trace.DefaultChunkInstrs),

		schedSleepUntil: make([]uint64, cfg.SchedulersPerSM),
	}
	for i := range s.greedy {
		s.greedy[i] = -1
	}
	s.l1d = core.NewL1D(cfg, policy, s.onMemResponse)
	return s
}

// L1D exposes the cache for the engine's response routing and stats.
func (s *SM) L1D() *core.L1D { return s.l1d }

// Stats returns the SM's counters (cycles are tracked by the engine).
func (s *SM) Stats() *stats.Stats { return s.st }

// AssignStream queues block idx of a lazy trace stream for execution on
// this SM. Warps of the block pull chunk-sized instruction windows from
// the stream through this SM's chunk pool as they execute.
func (s *SM) AssignStream(src trace.Stream, idx int) {
	s.pendingBlocks = append(s.pendingBlocks, pendingBlock{src: src, idx: idx, warps: src.Warps(idx)})
}

// onMemResponse is the L1D delivery callback: one completed load
// request. Delivery is the load's last stop, so the request goes back
// to the pool here.
func (s *SM) onMemResponse(req *mem.Request) {
	w := s.slots[req.Warp]
	if w == nil || w.outstanding <= 0 {
		panic(fmt.Sprintf("sm%d: response for idle warp slot %d", s.id, req.Warp))
	}
	w.outstanding--
	s.pool.Put(req)
	if w.outstanding == 0 {
		// Only the last response unblocks the warp; earlier ones leave
		// it waiting and cannot make any scheduler's scan succeed.
		s.schedSleepUntil[req.Warp%len(s.schedSleepUntil)] = 0
	}
}

// wakeSchedulers clears every scheduler's sleep bound; called on events
// that can make a warp issuable through something other than its own
// busyUntil elapsing (retirement shifts the active-warp throttle, an
// LD/ST drain frees queue capacity, admission adds new candidates).
func (s *SM) wakeSchedulers() {
	for i := range s.schedSleepUntil {
		s.schedSleepUntil[i] = 0
	}
}

// admitBlocks moves pending blocks into free warp slots while capacity
// allows, preserving dispatch order. Occupancy comes from the liveWarps
// counter, so a full SM costs O(1) per cycle instead of a slot sweep.
// Returns whether any block was admitted.
func (s *SM) admitBlocks() bool {
	admitted := false
	for len(s.pendingBlocks) > 0 {
		pb := s.pendingBlocks[0]
		if len(s.slots)-s.liveWarps < pb.warps {
			return admitted
		}
		rb := s.getBlock()
		rb.liveWarps = pb.warps
		wi := 0
		for slot := range s.slots {
			if wi >= pb.warps {
				break
			}
			if s.slots[slot] != nil {
				continue
			}
			s.ageCounter++
			w := s.getWarp()
			w.cur.InitStream(pb.src, s.chunks, s.cfg.L1D.LineSize, pb.idx, wi)
			w.slot = slot
			w.age = s.ageCounter
			w.block = rb
			s.slots[slot] = w
			s.liveWarps++
			if w.cur.Exhausted() {
				s.finishedWarps++
			}
			wi++
		}
		s.pendingBlocks = s.pendingBlocks[1:]
		admitted = true
	}
	if admitted {
		s.wakeSchedulers()
	}
	return admitted
}

// retireWarps frees slots of completed warps and their blocks. Returns
// whether any warp retired.
func (s *SM) retireWarps() bool {
	// Trace exhaustion is necessary for done(), so with no finished
	// warps resident the sweep cannot retire anything.
	if s.finishedWarps == 0 {
		return false
	}
	retired := false
	for slot, w := range s.slots {
		if w == nil || !w.done(s.now) {
			continue
		}
		w.block.liveWarps--
		if w.block.liveWarps == 0 {
			s.freeBlocks = append(s.freeBlocks, w.block)
		}
		s.slots[slot] = nil
		s.liveWarps--
		s.finishedWarps--
		w.cur.Release() // return the stream chunk before wiping the warp
		*w = warp{}
		s.freeWarps = append(s.freeWarps, w)
		retired = true
	}
	if retired {
		s.wakeSchedulers()
	}
	return retired
}

func (s *SM) getWarp() *warp {
	if n := len(s.freeWarps); n > 0 {
		w := s.freeWarps[n-1]
		s.freeWarps[n-1] = nil
		s.freeWarps = s.freeWarps[:n-1]
		return w
	}
	return &warp{}
}

func (s *SM) getBlock() *residentBlock {
	if n := len(s.freeBlocks); n > 0 {
		rb := s.freeBlocks[n-1]
		s.freeBlocks[n-1] = nil
		s.freeBlocks = s.freeBlocks[:n-1]
		*rb = residentBlock{}
		return rb
	}
	return &residentBlock{}
}

// Tick advances the SM one core cycle: cache delivery, LD/ST drain, then
// warp issue. It reports whether the cycle did any real work — state or
// counter mutation beyond advancing the clock. A false return means the
// SM's visible state is exactly what it was last cycle, which is what
// lets the engine fast-forward (the attempt loop in tickLDST counts as
// work: even a stalled access mutates the stall counters).
func (s *SM) Tick(now uint64) bool {
	s.now = now
	active := s.l1d.Tick(now) > 0
	if s.retireWarps() {
		active = true
	}
	if len(s.pendingBlocks) > 0 && s.admitBlocks() {
		active = true
	}
	if len(s.ldst) > 0 {
		s.tickLDST()
		active = true
	}
	if s.liveWarps > 0 && s.issue() {
		active = true
	}
	return active
}

// tickLDST pushes the head memory instruction's next request into the
// L1D; a stall blocks the pipeline register (and therefore every younger
// memory instruction) until the cache accepts it.
func (s *SM) tickLDST() {
	if len(s.ldst) == 0 {
		return
	}
	mi := s.ldst[0]
	req := mi.reqs[mi.next]
	outcome := s.l1d.Access(req)
	if outcome == mem.OutcomeStall {
		return
	}
	if !req.Store {
		mi.w.outstanding++
	}
	mi.next++
	if mi.next == len(mi.reqs) {
		mi.w.inLDST = false
		copy(s.ldst, s.ldst[1:])
		s.ldst[len(s.ldst)-1] = nil
		s.ldst = s.ldst[:len(s.ldst)-1]
		for i := range mi.reqs {
			mi.reqs[i] = nil // requests live on in the cache/memory system
		}
		mi.reqs = mi.reqs[:0]
		mi.w = nil
		mi.next = 0
		s.freeMI = append(s.freeMI, mi)
		// The drained warp may issue again, and the shorter queue may
		// clear another warp's structural hazard.
		s.wakeSchedulers()
	}
}

// issue runs each warp scheduler once: greedy on the warp it issued last,
// falling back to the oldest ready warp it owns. Scheduler k owns warp
// slots with slot % SchedulersPerSM == k. Returns whether any scheduler
// issued.
func (s *SM) issue() bool {
	issued := false
	for sched := 0; sched < s.cfg.SchedulersPerSM; sched++ {
		slot := s.pickWarp(sched)
		if slot < 0 {
			continue
		}
		s.issueFrom(s.slots[slot])
		s.greedy[sched] = slot
		issued = true
	}
	return issued
}

// issuable reports whether the warp can issue right now, including the
// structural LD/ST-queue hazard for memory instructions and the optional
// active-warp throttle.
func (s *SM) issuable(w *warp) bool {
	if w == nil || !w.ready(s.now) {
		return false
	}
	if !s.warpActive(w) {
		return false
	}
	if w.cur.Cur().Kind != trace.Compute && len(s.ldst) >= s.ldstCap {
		return false
	}
	return true
}

// warpActive implements static CCWS-style throttling: with MaxActiveWarps
// set, only the N oldest unfinished warps may issue; the rest wait until
// an older warp retires. Zero disables the throttle.
func (s *SM) warpActive(w *warp) bool {
	limit := s.cfg.MaxActiveWarps
	if limit <= 0 {
		return true
	}
	older := 0
	for _, other := range s.slots {
		if other != nil && other != w && other.age < w.age {
			older++
		}
	}
	return older < limit
}

func (s *SM) pickWarp(sched int) int {
	if s.now < s.schedSleepUntil[sched] {
		return -1 // proven empty until then; skip the scan
	}
	if s.cfg.Scheduler == config.SchedLRR {
		return s.pickWarpLRR(sched)
	}
	if g := s.greedy[sched]; g >= 0 && s.issuable(s.slots[g]) {
		return g
	}
	best := -1
	var bestAge uint64
	nextReady := ^uint64(0)
	for slot := sched; slot < len(s.slots); slot += s.cfg.SchedulersPerSM {
		w := s.slots[slot]
		if w == nil || w.outstanding != 0 || w.inLDST || w.cur.Exhausted() {
			// Empty, waiting on an unblocking event, or exhausted: none
			// contribute a time-based wake (events reset the sleep bound).
			continue
		}
		if w.busyUntil > s.now {
			// Blocked only by its issue latency: it becomes a candidate
			// at busyUntil with no triggering event, so a failed scan
			// must re-run by then.
			if w.busyUntil < nextReady {
				nextReady = w.busyUntil
			}
			continue
		}
		// Ready; only the throttle or the LD/ST structural hazard can
		// still block it, and both clear via sleep-resetting events.
		if !s.warpActive(w) {
			continue
		}
		if w.cur.Cur().Kind != trace.Compute && len(s.ldst) >= s.ldstCap {
			continue
		}
		if best < 0 || w.age < bestAge {
			best = slot
			bestAge = w.age
		}
	}
	if best < 0 {
		s.schedSleepUntil[sched] = nextReady
	}
	return best
}

// pickWarpLRR rotates through the scheduler's slot sequence (slots
// congruent to sched modulo the scheduler count), starting just after
// the slot it issued from last.
func (s *SM) pickWarpLRR(sched int) int {
	n := s.cfg.SchedulersPerSM
	count := 0
	for slot := sched; slot < len(s.slots); slot += n {
		count++
	}
	if count == 0 {
		return -1
	}
	last := -1 // position of the last-issued slot within the sequence
	if g := s.greedy[sched]; g >= 0 {
		last = (g - sched) / n
	}
	nextReady := ^uint64(0)
	for i := 1; i <= count; i++ {
		slot := sched + ((last+i)%count)*n
		w := s.slots[slot]
		if w == nil || w.outstanding != 0 || w.inLDST || w.cur.Exhausted() {
			continue
		}
		if w.busyUntil > s.now {
			if w.busyUntil < nextReady {
				nextReady = w.busyUntil
			}
			continue
		}
		if !s.warpActive(w) {
			continue
		}
		if w.cur.Cur().Kind != trace.Compute && len(s.ldst) >= s.ldstCap {
			continue
		}
		return slot
	}
	s.schedSleepUntil[sched] = nextReady
	return -1
}

func (s *SM) issueFrom(w *warp) {
	// The instruction must be fully consumed before Advance(): a chunk
	// refill reuses the cursor's backing storage, invalidating in.
	in := w.cur.Cur()
	s.st.WarpInsns++
	s.st.Instructions += uint64(in.ActiveLanes)
	s.l1d.NoteInstructions(uint64(in.ActiveLanes))

	switch in.Kind {
	case trace.Compute:
		w.busyUntil = s.now + uint64(in.Latency)
	case trace.Load, trace.Store:
		s.lineBuf = in.AppendCoalescedLines(s.lineBuf[:0], s.cfg.L1D.LineSize)
		mi := s.getMemInstr()
		mi.w = w
		for _, line := range s.lineBuf {
			s.nextReqID++
			r := s.pool.Get()
			r.ID = s.nextReqID
			r.Addr = line
			r.PC = in.PC
			r.InsnID = addr.HashPC(in.PC)
			r.SM = s.id
			r.Warp = w.slot
			r.Store = in.Kind == trace.Store
			mi.reqs = append(mi.reqs, r)
		}
		w.inLDST = true
		s.ldst = append(s.ldst, mi)
		w.busyUntil = s.now + 1
	}
	w.cur.Advance()
	if w.cur.Exhausted() {
		s.finishedWarps++
	}
}

func (s *SM) getMemInstr() *memInstr {
	if n := len(s.freeMI); n > 0 {
		mi := s.freeMI[n-1]
		s.freeMI[n-1] = nil
		s.freeMI = s.freeMI[:n-1]
		return mi
	}
	return &memInstr{reqs: make([]*mem.Request, 0, 4)}
}

// Done reports whether every assigned block has fully executed and all
// cache work has drained. It is O(1): occupied slots are counted at
// admit/retire instead of swept.
//
// The counter form is exactly equivalent to sweeping the slots for
// !w.done(now) at the points the engine evaluates it (after a full
// step). A live slot then holds either a warp that is not done — both
// forms say "not done" — or a warp that completed mid-tick after
// retireWarps ran. The latter can only be the store-drain path in
// tickLDST (load completions are delivered by the engine's response
// routing or l1d.Tick, both of which precede retireWarps within the
// same cycle), and a just-accepted store is still in the L1D's outgoing
// queue or the interconnect's injection queue at evaluation time, so
// the sweep form would report "not done" through l1d.Pending() or the
// network anyway. The self-check mode cross-checks this equivalence at
// every sampled cycle (CheckActivity).
func (s *SM) Done() bool {
	return s.liveWarps == 0 && len(s.pendingBlocks) == 0 && len(s.ldst) == 0 &&
		!s.l1d.Pending()
}

// DoneSweep is the first-principles form of Done, used by the engine's
// sampled self-checks and the activity property tests to validate the
// counter form.
func (s *SM) DoneSweep() bool {
	if len(s.pendingBlocks) > 0 || len(s.ldst) > 0 || s.l1d.Pending() {
		return false
	}
	for _, w := range s.slots {
		if w != nil && !w.done(s.now) {
			return false
		}
	}
	return true
}

// CheckActivity validates the SM's O(1) activity accounting against a
// full sweep: the liveWarps counter must equal the occupied-slot count,
// and when the counter form of Done disagrees with the sweep form the
// difference must be explained by in-flight work (a done-but-unretired
// warp whose final store still sits in an outgoing queue). Returns a
// descriptive error on violation.
func (s *SM) CheckActivity() error {
	occupied, finished := 0, 0
	for _, w := range s.slots {
		if w != nil {
			occupied++
			if w.cur.Exhausted() {
				finished++
			}
		}
	}
	if occupied != s.liveWarps {
		return fmt.Errorf("sm%d: liveWarps=%d but %d slots occupied", s.id, s.liveWarps, occupied)
	}
	if finished != s.finishedWarps {
		return fmt.Errorf("sm%d: finishedWarps=%d but %d resident warps exhausted",
			s.id, s.finishedWarps, finished)
	}
	if s.Done() && !s.DoneSweep() {
		return fmt.Errorf("sm%d: counter Done()=true but slot sweep disagrees", s.id)
	}
	// A sleeping scheduler claims no owned warp can issue before its
	// bound; an issuable warp under that claim would mean the scan skip
	// changed behavior.
	for sched, until := range s.schedSleepUntil {
		if s.now >= until {
			continue
		}
		for slot := sched; slot < len(s.slots); slot += s.cfg.SchedulersPerSM {
			if s.issuable(s.slots[slot]) {
				return fmt.Errorf("sm%d: scheduler %d asleep until %d but slot %d issuable at %d",
					s.id, sched, until, slot, s.now)
			}
		}
	}
	// Done()==false with doneSweep()==true is legal only while the
	// retiring warp's store is still in flight somewhere downstream; the
	// engine-level check (quiescent vs quiescentDeep) covers that case
	// because the network/outgoing queues keep the deep form non-idle.
	return nil
}

// NextWake returns the next cycle at which this SM can possibly do real
// work, given no new responses arrive before then; ok=false means the
// SM must be ticked every cycle (it has immediately pending work whose
// per-cycle behavior is observable, e.g. a draining LD/ST queue whose
// stall retries mutate the stall counters). A warp waiting only on
// outstanding memory contributes no wake time: the response's arrival
// is bounded by the network/partition event times the engine already
// considers, and its delivery marks the SM active again.
// Pending thread blocks do not force per-cycle ticking: admission
// capacity only changes when a warp retires, and every retirement cycle
// is already in the wake set (a retiring warp's busyUntil, or the
// delivery that zeroes its outstanding count). at == ^uint64(0) means
// the SM has no self-scheduled wake and sleeps until a response.
func (s *SM) NextWake(now uint64) (at uint64, ok bool) {
	if len(s.ldst) > 0 || s.l1d.HasOutgoing() {
		return 0, false
	}
	at = ^uint64(0)
	if h, hok := s.l1d.NextDelivery(); hok {
		at = h
	}
	for _, w := range s.slots {
		if w == nil || w.inLDST || w.outstanding > 0 {
			continue
		}
		if w.busyUntil > now {
			// Waiting out an issue latency: nothing observable happens
			// until busyUntil (issue readiness or retirement).
			if w.busyUntil < at {
				at = w.busyUntil
			}
			continue
		}
		// Ready to issue (or done and awaiting retirement) right now.
		return 0, false
	}
	return at, true
}
