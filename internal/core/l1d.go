// Package core implements the simulated L1 data cache controller: the
// tag array mechanism (probe, reserve, fill), MSHRs, miss and bypass
// queues, hit-latency modelling and statistics. Every management
// decision — stall vs bypass, victim eligibility, admission, protection
// state — is delegated to a scheme from internal/policy, where the
// paper's DLP hardware (VTA, PDPT, Figure 9 computation) now lives as
// one registry entry among several. The §4.3 hardware-overhead model is
// also here.
package core

import (
	"fmt"

	"repro/internal/addr"
	"repro/internal/cache"
	"repro/internal/config"
	"repro/internal/mem"
	"repro/internal/policy"
	"repro/internal/stats"
)

// L1D is one SM's L1 data cache, running under a registered management
// policy. The SM's LD/ST unit calls Access; the engine drains outgoing
// fetches with PopOutgoing and delivers network responses with OnResponse.
// Completed loads are handed back to the SM through the deliver callback.
type L1D struct {
	cfg    *config.Config
	policy config.Policy
	mapper *addr.Mapper
	ta     *cache.TagArray
	mshr   *cache.MSHR
	missQ  *cache.FIFO // fetches for misses that reserved a line
	bypsQ  *cache.FIFO // bypassed fetches and write-through stores (never stalls)

	pol      policy.Policy          // the decision maker
	eligible func(*cache.Line) bool // victim filter, bound once at construction

	st   *stats.Stats
	seen map[uint64]bool // line IDs ever requested, for compulsory-miss accounting

	deliver func(*mem.Request)
	hitQ    []hitResponse
	now     uint64
}

type hitResponse struct {
	readyAt uint64
	req     *mem.Request
}

// NewL1D builds an L1D for cfg under the given policy. deliver is invoked
// once per completed load request (hit, fill, or bypass response). The
// policy name must be registered (sim.New validates it up front); an
// unknown name here is a programming error and panics.
func NewL1D(cfg *config.Config, pol config.Policy, deliver func(*mem.Request)) *L1D {
	kind := addr.LinearIndex
	if cfg.L1D.Hashed {
		kind = addr.HashIndex
	}
	m := addr.MustMapper(cfg.L1D.LineSize, cfg.L1D.Sets, kind)
	c := &L1D{
		cfg:     cfg,
		policy:  pol,
		mapper:  m,
		ta:      cache.NewTagArray(m, cfg.L1D.Ways),
		mshr:    cache.NewMSHR(cfg.L1DMSHRs, cfg.L1DMSHRMerges),
		missQ:   cache.NewFIFO(cfg.L1DMissQueue),
		bypsQ:   cache.NewFIFO(0),
		st:      &stats.Stats{},
		seen:    make(map[uint64]bool),
		deliver: deliver,
	}
	host := &policy.Host{
		Cfg:    cfg,
		Mapper: m,
		Tags:   c.ta,
		Stats:  c.st,
		Now:    func() uint64 { return c.now },
	}
	p, err := policy.New(pol, host)
	if err != nil {
		panic("core: " + err.Error())
	}
	c.pol = p
	c.eligible = p.VictimFilter()
	return c
}

// Stats returns the cache's counters.
func (c *L1D) Stats() *stats.Stats { return c.st }

// PDPT exposes the prediction table for tests and introspection; nil for
// policies that don't carry one (everything but Global-Protection and
// DLP).
func (c *L1D) PDPT() *policy.PDPT {
	if p, ok := c.pol.(policy.PDPTCarrier); ok {
		return p.PDPT()
	}
	return nil
}

// Tick advances the cache to cycle now and delivers hit responses whose
// latency has elapsed, returning how many it delivered.
func (c *L1D) Tick(now uint64) int {
	c.now = now
	n := 0
	for _, h := range c.hitQ {
		if h.readyAt > now {
			break
		}
		c.deliver(h.req)
		n++
	}
	if n > 0 {
		// Shift rather than re-slice so the backing array is reused and
		// never pins delivered requests alive.
		rest := copy(c.hitQ, c.hitQ[n:])
		for i := rest; i < len(c.hitQ); i++ {
			c.hitQ[i] = hitResponse{}
		}
		c.hitQ = c.hitQ[:rest]
	}
	return n
}

// NextDelivery returns the cycle the oldest queued hit becomes
// deliverable; ok=false when no hits are queued. Hit latency is
// constant, so the queue is ordered by readyAt and the head is the
// minimum.
func (c *L1D) NextDelivery() (at uint64, ok bool) {
	if len(c.hitQ) == 0 {
		return 0, false
	}
	return c.hitQ[0].readyAt, true
}

// NoteInstructions feeds executed-instruction counts into the policy's
// sampling clock so kernels with few loads still close samples (§4.1.4).
func (c *L1D) NoteInstructions(n uint64) {
	c.pol.NoteInstructions(n)
}

// acceptAccess counts an accepted (non-stalled) access, records
// first-ever line touches, and runs the policy's per-access hook
// (sampling clock, protection aging).
func (c *L1D) acceptAccess(req *mem.Request, set int) {
	c.st.L1DAccesses++
	id := c.mapper.LineID(req.Addr)
	if !c.seen[id] {
		c.seen[id] = true
		c.st.L1DCompulsory++
	}
	c.pol.OnAccess(req, set)
}

// blocked resolves a non-serviceable access through the policy: either
// the request bypasses, or it stalls and the LD/ST pipeline register
// retries next cycle.
func (c *L1D) blocked(req *mem.Request, set int, why policy.Block) mem.AccessOutcome {
	if c.pol.OnBlocked(req, set, why) == policy.Bypass {
		return c.doBypass(req, set)
	}
	c.st.L1DStalls++
	return mem.OutcomeStall
}

// Access presents one line-granularity request to the cache and returns
// how it was handled. OutcomeStall means the request was not accepted and
// the LD/ST pipeline register must retry next cycle.
func (c *L1D) Access(req *mem.Request) mem.AccessOutcome {
	if req.Store {
		return c.accessStore(req)
	}
	set, way, res := c.ta.Probe(req.Addr)
	switch res {
	case cache.ProbeHit:
		c.acceptAccess(req, set)
		c.pol.OnHit(req, set, &c.ta.Set(set)[way])
		c.ta.Touch(set, way)
		c.st.L1DHits++
		c.st.L1DTraffic++
		c.hitQ = append(c.hitQ, hitResponse{readyAt: c.now + uint64(c.cfg.L1DHitLatency), req: req})
		return mem.OutcomeHit

	case cache.ProbeReserved:
		e := c.mshr.Lookup(req.Addr)
		if e == nil {
			panic(fmt.Sprintf("core: reserved line %#x without MSHR entry", uint64(req.Addr)))
		}
		if !c.mshr.CanMerge(e) {
			return c.blocked(req, set, policy.BlockNoMerge)
		}
		c.acceptAccess(req, set)
		c.mshr.Merge(e, req)
		c.st.L1DMisses++
		c.st.L1DTraffic++
		return mem.OutcomeMiss

	default: // ProbeMiss
		return c.accessMiss(req, set)
	}
}

// accessMiss handles a load that matched nothing in the TDA.
func (c *L1D) accessMiss(req *mem.Request, set int) mem.AccessOutcome {
	// Structural hazards: a serviced miss needs an MSHR entry and a
	// miss-queue slot.
	if c.mshr.Full() || c.missQ.Full() {
		return c.blocked(req, set, policy.BlockStructural)
	}

	victim := c.ta.VictimIn(set, c.eligible)
	if victim < 0 {
		// Every line in the set is reserved or protected.
		return c.blocked(req, set, policy.BlockNoVictim)
	}

	if !c.pol.Admit(req, set) {
		return c.doBypass(req, set)
	}

	c.acceptAccess(req, set)
	c.pol.OnAllocate(req, set)

	evicted := c.ta.Reserve(set, victim, req.Addr)
	if evicted.Valid {
		c.st.L1DEvictions++
		c.pol.OnEvict(set, evicted)
	}
	ln := &c.ta.Set(set)[victim]
	ln.InsnID = req.InsnID
	c.pol.OnReserved(req, set, ln)
	c.mshr.Allocate(req, set, victim)
	if !c.missQ.Push(req) {
		panic("core: miss queue full after capacity check")
	}
	c.st.L1DMisses++
	c.st.L1DTraffic++
	return mem.OutcomeMiss
}

// doBypass sends req around the cache. The bypass path never stalls
// (it has its own queue sharing only the ICNT injection port).
func (c *L1D) doBypass(req *mem.Request, set int) mem.AccessOutcome {
	c.acceptAccess(req, set)
	c.pol.OnBypass(req, set)
	req.Bypass = true
	c.bypsQ.Push(req)
	c.st.L1DBypasses++
	return mem.OutcomeBypass
}

// accessStore implements write-through, write-no-allocate stores with
// write-evict on hit (Fermi global-store semantics). Stores never stall
// and never receive responses.
func (c *L1D) accessStore(req *mem.Request) mem.AccessOutcome {
	set, way, res := c.ta.Probe(req.Addr)
	if res == cache.ProbeHit {
		c.ta.Invalidate(set, way)
	}
	c.bypsQ.Push(req)
	c.st.StoreAccesses++
	return mem.OutcomeBypass
}

// PopOutgoing hands the next fetch/store packet to the interconnect, or
// nil when nothing is pending. Serviced misses drain before the bypass
// path.
func (c *L1D) PopOutgoing() *mem.Request {
	if r := c.missQ.Pop(); r != nil {
		return r
	}
	return c.bypsQ.Pop()
}

// HasOutgoing reports whether PopOutgoing would return a packet.
func (c *L1D) HasOutgoing() bool {
	return !c.missQ.Empty() || !c.bypsQ.Empty()
}

// OnResponse accepts a returning fetch from the interconnect: bypassed
// requests go straight to the warp; serviced misses fill their reserved
// line and release every merged request.
func (c *L1D) OnResponse(req *mem.Request) {
	if req.Store {
		panic("core: store received a response")
	}
	if req.Bypass {
		c.deliver(req)
		return
	}
	e := c.mshr.Release(req.Addr)
	if e == nil {
		panic(fmt.Sprintf("core: response for %#x without MSHR entry", uint64(req.Addr)))
	}
	c.ta.Fill(e.Set, e.Way)
	ln := &c.ta.Set(e.Set)[e.Way]
	ln.InsnID = req.InsnID
	c.pol.OnFill(req, ln)
	for _, r := range e.Requests {
		c.deliver(r)
	}
	c.mshr.Recycle(e)
}

// Pending reports outstanding work: queued packets, live MSHR entries, or
// undelivered hits. The engine uses it to detect quiescence.
func (c *L1D) Pending() bool {
	return c.HasOutgoing() || c.mshr.Size() > 0 || len(c.hitQ) > 0
}
