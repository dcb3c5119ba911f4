package trace

import (
	"repro/internal/addr"
)

// A Stream is a lazy, chunked view of a kernel: the same grid shape as
// a Kernel (blocks of warps of in-order instructions), but instruction
// windows are produced on demand instead of materialized up front.
// Backends include on-demand workload generators, on-disk trace files,
// and a fully precomputed Kernel.
//
// Streams must be deterministic: the same (block, warp, start) always
// yields the same window contents, so simulations are bit-identical to
// their eager counterparts and resumable across refills.
type Stream interface {
	// Name is the kernel name (shown in tables and error messages).
	Name() string

	// Blocks is the number of thread blocks in the grid.
	Blocks() int

	// Warps is the number of warps in the given block.
	Warps(block int) int

	// Fill produces the instruction window of warp (block, warp)
	// beginning at in-warp instruction index start. The window is
	// either written into c's backing storage (owned=true: the caller
	// may memoize coalesced-line results into the chunk) or aliases
	// storage shared with other consumers (owned=false: the window is
	// read-only). eof reports that the window reaches the end of the
	// warp's trace; a non-eof window is never empty. start is always
	// either 0 or the exact end of the previously returned window, so
	// sequential backends can keep a cheap continuation in c.Resume.
	Fill(block, warp, start int, c *Chunk) (win []Instr, eof, owned bool)

	// SpecKey is a stable content identity for the whole stream —
	// equal keys mean byte-identical traces — used by the runner's
	// result cache in place of a materialized-kernel digest. An empty
	// key marks the stream uncacheable.
	SpecKey() string
}

// DefaultChunkInstrs is the instruction-window size streaming cursors
// request per refill. At 64 instructions a fully diverged chunk tops
// out around 36 KB (64 instrs x 32 lanes x 8-byte addresses plus line
// memos), so even a fully resident machine — 16 SMs x 48 warps — is
// bounded near 28 MB of chunk storage regardless of trace footprint.
const DefaultChunkInstrs = 64

// A Chunk is one warp's reusable refill buffer. Streams that own their
// windows build instructions in Instrs with per-lane addresses in
// Addrs; the cursor memoizes coalesced lines into Lines. Buf is
// scratch for byte-level backends (trace files). Resume carries a
// backend-private continuation across refills of the same warp; Reset
// preserves it, and backends must validate it before trusting it.
type Chunk struct {
	Instrs []Instr
	Addrs  []addr.Addr
	Lines  []addr.Addr
	Buf    []byte
	Resume any
}

// Reset truncates the chunk's storage for the next refill, keeping
// capacity (and the Resume continuation) so steady-state refills stay
// allocation-free.
func (c *Chunk) Reset() {
	c.Instrs = c.Instrs[:0]
	c.Addrs = c.Addrs[:0]
	c.Lines = c.Lines[:0]
}

// A ChunkPool recycles chunks across the warps of one SM. It is
// deliberately unsynchronized: each SM owns one pool, and all warp
// refills happen on that SM's tick, which the engine already keeps
// single-threaded.
type ChunkPool struct {
	chunkInstrs int
	free        []*Chunk
}

// NewChunkPool returns a pool handing out chunks sized for
// chunkInstrs-instruction windows (DefaultChunkInstrs if <= 0).
func NewChunkPool(chunkInstrs int) *ChunkPool {
	if chunkInstrs <= 0 {
		chunkInstrs = DefaultChunkInstrs
	}
	return &ChunkPool{chunkInstrs: chunkInstrs}
}

// ChunkInstrs is the window size this pool's chunks are sized for.
func (p *ChunkPool) ChunkInstrs() int { return p.chunkInstrs }

// Get pops a free chunk, allocating a fresh one with preallocated
// backing when the free list is empty.
func (p *ChunkPool) Get() *Chunk {
	if n := len(p.free); n > 0 {
		c := p.free[n-1]
		p.free = p.free[:n-1]
		return c
	}
	const lanes = 32
	return &Chunk{
		Instrs: make([]Instr, 0, p.chunkInstrs),
		Addrs:  make([]addr.Addr, 0, p.chunkInstrs*lanes),
		Lines:  make([]addr.Addr, 0, p.chunkInstrs*4),
	}
}

// Put returns a chunk to the free list.
func (p *ChunkPool) Put(c *Chunk) {
	if c != nil {
		p.free = append(p.free, c)
	}
}

// A Cursor walks one warp's instruction stream in order, refilling a
// pooled chunk window on demand. A KernelStream window is the whole
// warp with eof set, so over a precomputed kernel the cursor never
// refills and stepping is plain slice arithmetic.
type Cursor struct {
	win  []Instr
	off  int
	base int // in-warp index of win[0]
	eof  bool

	src      Stream
	pool     *ChunkPool
	chunk    *Chunk
	lineSize int
	block    int
	warp     int
}

// InitStream points the cursor at warp (block, warp) of src and loads
// the first window. lineSize > 0 enables per-chunk coalesced-line
// memoization on owned windows.
func (c *Cursor) InitStream(src Stream, pool *ChunkPool, lineSize, block, warp int) {
	*c = Cursor{src: src, pool: pool, lineSize: lineSize, block: block, warp: warp}
	c.refill(0)
}

// Exhausted reports that the warp has no further instructions.
func (c *Cursor) Exhausted() bool { return c.eof && c.off >= len(c.win) }

// Cur returns the current instruction. Valid only when !Exhausted();
// the pointer is invalidated by the next Advance.
func (c *Cursor) Cur() *Instr { return &c.win[c.off] }

// Index is the in-warp index of the current instruction.
func (c *Cursor) Index() int { return c.base + c.off }

// Advance steps past the current instruction, refilling the window in
// place when it runs dry. Any pointer from Cur is invalid afterwards.
func (c *Cursor) Advance() {
	c.off++
	if c.off >= len(c.win) && !c.eof {
		c.refill(c.base + len(c.win))
	}
}

// Rewind restarts the warp from its first instruction.
func (c *Cursor) Rewind() { c.refill(0) }

// Release returns the cursor's chunk to the pool and clears the
// cursor. The chunk keeps its Resume continuation, so a warp of the
// same stream reusing it later can still fast-path.
func (c *Cursor) Release() {
	if c.chunk != nil {
		c.pool.Put(c.chunk)
	}
	*c = Cursor{}
}

func (c *Cursor) refill(start int) {
	if c.chunk == nil {
		c.chunk = c.pool.Get()
	}
	c.chunk.Reset()
	win, eof, owned := c.src.Fill(c.block, c.warp, start, c.chunk)
	if !owned {
		// The window aliases the stream's own storage: hand the chunk
		// straight back so every resident warp of a precomputed kernel
		// shares one pooled chunk instead of pinning a buffer each.
		c.pool.Put(c.chunk)
		c.chunk = nil
	} else if c.lineSize > 0 {
		memoizeChunkLines(c.chunk, win, c.lineSize)
	}
	c.win, c.eof, c.base, c.off = win, eof, start, 0
}

// memoizeChunkLines is the per-chunk analogue of
// Kernel.PrecomputeCoalesced: each memory instruction's coalesced
// line list is computed once into the chunk's Lines arena, so the
// LD/ST issue path takes the memoized fast path without touching the
// shared-kernel memo machinery.
func memoizeChunkLines(ch *Chunk, win []Instr, lineSize int) {
	for i := range win {
		in := &win[i]
		if in.Kind == Compute || in.linesSize == lineSize {
			continue
		}
		in.linesSize = 0 // force a fresh computation
		start := len(ch.Lines)
		ch.Lines = in.AppendCoalescedLines(ch.Lines, lineSize)
		// Full slice expression: appends to ch.Lines for later
		// instructions must reallocate rather than scribble over this
		// instruction's memo.
		in.lines = ch.Lines[start:len(ch.Lines):len(ch.Lines)]
		in.linesSize = lineSize
	}
}

// KernelStream adapts a fully precomputed Kernel to the Stream
// interface: windows alias the kernel's own storage (owned=false), so
// a shared kernel is never written through a stream.
type KernelStream struct {
	k *Kernel
}

// NewKernelStream wraps k as a Stream.
func NewKernelStream(k *Kernel) *KernelStream { return &KernelStream{k: k} }

// Kernel returns the wrapped kernel (the runner digests it for cache
// keys, since a wrapped kernel has no spec-level identity).
func (s *KernelStream) Kernel() *Kernel { return s.k }

func (s *KernelStream) Name() string        { return s.k.Name }
func (s *KernelStream) Blocks() int         { return len(s.k.Blocks) }
func (s *KernelStream) Warps(block int) int { return len(s.k.Blocks[block].Warps) }
func (s *KernelStream) SpecKey() string     { return "" }

func (s *KernelStream) Fill(block, warp, start int, c *Chunk) (win []Instr, eof, owned bool) {
	wt := s.k.Blocks[block].Warps[warp]
	return wt.Instrs[start:], true, false
}

// MultiStream concatenates sub-streams into one grid — the
// multi-kernel launch shape, where several kernels' blocks share the
// machine back to back.
type MultiStream struct {
	name    string
	subs    []Stream
	starts  []int // starts[i] = first global block index of subs[i]
	nBlocks int
}

// NewMultiStream concatenates subs under one name.
func NewMultiStream(name string, subs ...Stream) *MultiStream {
	m := &MultiStream{name: name, subs: subs, starts: make([]int, len(subs))}
	for i, s := range subs {
		m.starts[i] = m.nBlocks
		m.nBlocks += s.Blocks()
	}
	return m
}

func (m *MultiStream) Name() string { return m.name }
func (m *MultiStream) Blocks() int  { return m.nBlocks }

// sub maps a global block index to (sub-stream, local block index).
func (m *MultiStream) sub(block int) (Stream, int) {
	lo, hi := 0, len(m.subs)-1
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if m.starts[mid] <= block {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return m.subs[lo], block - m.starts[lo]
}

func (m *MultiStream) Warps(block int) int {
	s, b := m.sub(block)
	return s.Warps(b)
}

func (m *MultiStream) Fill(block, warp, start int, c *Chunk) ([]Instr, bool, bool) {
	s, b := m.sub(block)
	return s.Fill(b, warp, start, c)
}

func (m *MultiStream) SpecKey() string {
	key := "multi:" + m.name
	for _, s := range m.subs {
		sk := s.SpecKey()
		if sk == "" {
			return ""
		}
		key += "|" + sk
	}
	return key
}

// Materialize runs the whole stream eagerly into a Kernel — the
// bridge for consumers that still need random access (trace-file
// recording uses it warp by warp instead, via Fill directly).
func Materialize(s Stream) *Kernel {
	k := &Kernel{Name: s.Name(), Blocks: make([]*Block, s.Blocks())}
	pool := NewChunkPool(DefaultChunkInstrs)
	for bi := range k.Blocks {
		blk := &Block{Warps: make([]*WarpTrace, s.Warps(bi))}
		for wi := range blk.Warps {
			var cur Cursor
			cur.InitStream(s, pool, 0, bi, wi)
			wt := &WarpTrace{}
			for !cur.Exhausted() {
				in := *cur.Cur()
				if len(in.Addrs) > 0 {
					in.Addrs = append([]addr.Addr(nil), in.Addrs...)
				}
				in.lines, in.linesSize = nil, 0
				wt.Instrs = append(wt.Instrs, in)
				cur.Advance()
			}
			cur.Release()
			blk.Warps[wi] = wt
		}
		k.Blocks[bi] = blk
	}
	return k
}
