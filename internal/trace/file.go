package trace

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io"
	"os"

	"repro/internal/addr"
)

// On-disk trace format ("DLPSTRM1", little-endian):
//
//	header:
//	  magic       [8]byte  "DLPSTRM1"
//	  version     uint32   (currently 1)
//	  chunkInstrs uint32   window size every chunk but a warp's last holds
//	  name        uint32 length + bytes
//	  blocks      uint32
//	  per block:  warps uint32
//	chunk data, block-major, warp order, chunk order, tiling the bytes
//	from the header's end to indexOff with no gaps:
//	  per instruction:
//	    kind   uint8
//	    pc     uint32
//	    compute: latency uint32, lanes uint8
//	    memory:  lanes uint8, lanes x uint64 addresses
//	index (at footer's indexOff), block-major, warp order:
//	  per warp: instrs uint32, then ceil(instrs/chunkInstrs) x
//	            (offset uint64, size uint32) chunk locations
//	footer (last 48 bytes):
//	  indexOff uint64
//	  sha256   [32]byte  over file bytes [0, size-48)
//	  tail     [8]byte   "DLPSTRM1"
//
// The per-warp chunk index is what makes the format streamable: a
// simulation seeks straight to any warp's next window with one ReadAt,
// so resident-warp state — not trace footprint — bounds memory. The
// whole-file checksum makes corruption detection an Open-time property;
// Fill never has to distinguish truncation from bad data mid-run.

var streamMagic = [8]byte{'D', 'L', 'P', 'S', 'T', 'R', 'M', '1'}

const (
	streamVersion   = 1
	streamFooterLen = 8 + sha256.Size + 8
	maxChunkInstrs  = 1 << 16

	// Index entry sizes: a chunk reference, and the smallest possible
	// warp entry (an instruction count plus its one chunk reference).
	// Open checks header counts against the index bytes actually
	// present before allocating anything sized by them.
	chunkRefLen  = 8 + 4
	minWarpIndex = 4 + chunkRefLen
)

// limits guard readers against corrupt or hostile inputs.
const (
	maxNameLen = 1 << 10
	maxBlocks  = 1 << 20
	maxWarps   = 1 << 16
	maxInstrs  = 1 << 26
	maxLanes   = 255
)

// FormatError describes a structurally invalid, truncated, or corrupt
// trace-stream file. Open returns it for anything wrong with the file
// itself; a FileStream whose file is mutilated after Open panics with
// one (the runner's recover boundary converts that into a job error).
type FormatError struct {
	Path string // file being read or written; "" for an in-memory trace
	Msg  string // what was wrong
}

func (e *FormatError) Error() string {
	if e.Path == "" {
		return "trace: stream: " + e.Msg
	}
	return fmt.Sprintf("trace: stream file %s: %s", e.Path, e.Msg)
}

func formatErrf(path, format string, args ...any) *FormatError {
	return &FormatError{Path: path, Msg: fmt.Sprintf(format, args...)}
}

// chunkRef locates one chunk's encoded bytes in the file.
type chunkRef struct {
	off  int64
	size uint32
}

// fileWarp is one warp's index entry.
type fileWarp struct {
	instrs int
	chunks []chunkRef
}

// FileStream replays a "DLPSTRM1" trace as a Stream. Open validates
// the whole file — bounds, index sanity, the full-file checksum, and
// the decoding of every chunk — so every later Fill is a bounds-checked
// ReadAt into the caller's chunk. Fill is safe for concurrent use
// across warps (the phase-parallel engine ticks SMs concurrently
// against one stream).
type FileStream struct {
	r           io.ReaderAt
	path        string
	name        string
	chunkInstrs int
	warpsPer    []int      // warps per block
	warps       []fileWarp // block-major, warp order
	warpStart   []int      // first warps[] index of each block
	digest      string     // hex sha256 of the hashed region
}

// Open opens and fully validates a trace-stream file. Any structural
// problem — bad magic, truncation, out-of-bounds index entries, an
// undecodable chunk, or a checksum mismatch — comes back as a
// *FormatError.
func Open(path string) (*FileStream, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	s, err := newFileStream(f, fi.Size(), path)
	if err != nil {
		f.Close()
		return nil, err
	}
	return s, nil
}

// ReadKernel reads a whole trace-stream recording from r and
// materializes it. Malformed input is a *FormatError.
func ReadKernel(r io.Reader) (*Kernel, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("trace: reading kernel: %w", err)
	}
	s, err := newFileStream(bytes.NewReader(data), int64(len(data)), "")
	if err != nil {
		return nil, err
	}
	return Materialize(s), nil
}

// fieldReader decodes little-endian fields from one region of a trace
// file, tracking how many of the region's bytes are left.
type fieldReader struct {
	r    *bufio.Reader
	left int64
	path string
	buf  [8]byte
}

func newFieldReader(r io.ReaderAt, off, n int64, path string) *fieldReader {
	return &fieldReader{r: bufio.NewReader(io.NewSectionReader(r, off, n)), left: n, path: path}
}

func (fr *fieldReader) read(n int, what string) ([]byte, error) {
	if int64(n) > fr.left {
		return nil, formatErrf(fr.path, "reading %s: %d bytes left, need %d", what, fr.left, n)
	}
	var b []byte
	if n <= len(fr.buf) {
		b = fr.buf[:n]
	} else {
		b = make([]byte, n)
	}
	if _, err := io.ReadFull(fr.r, b); err != nil {
		return nil, formatErrf(fr.path, "reading %s: %v", what, err)
	}
	fr.left -= int64(n)
	return b, nil
}

func (fr *fieldReader) u32(what string) (uint32, error) {
	b, err := fr.read(4, what)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(b), nil
}

func (fr *fieldReader) u64(what string) (uint64, error) {
	b, err := fr.read(8, what)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(b), nil
}

// newFileStream parses and validates the size-byte trace behind r.
func newFileStream(r io.ReaderAt, size int64, path string) (*FileStream, error) {
	if size < streamFooterLen+8 {
		return nil, formatErrf(path, "file too small (%d bytes) to be a trace stream", size)
	}

	// Footer first: tail magic, index offset, and the checksum that
	// vouches for everything else.
	var footer [streamFooterLen]byte
	if _, err := r.ReadAt(footer[:], size-streamFooterLen); err != nil {
		return nil, formatErrf(path, "reading footer: %v", err)
	}
	if [8]byte(footer[streamFooterLen-8:]) != streamMagic {
		return nil, formatErrf(path, "bad tail magic %q", footer[streamFooterLen-8:])
	}
	indexOff := int64(binary.LittleEndian.Uint64(footer[:8]))
	hashedLen := size - streamFooterLen
	if indexOff < 0 || indexOff > hashedLen {
		return nil, formatErrf(path, "index offset %d out of range (file %d bytes)", indexOff, size)
	}
	h := sha256.New()
	if _, err := io.Copy(h, io.NewSectionReader(r, 0, hashedLen)); err != nil {
		return nil, formatErrf(path, "hashing: %v", err)
	}
	sum := h.Sum(nil)
	if !bytes.Equal(sum, footer[8:8+sha256.Size]) {
		return nil, formatErrf(path, "checksum mismatch: file is corrupt or truncated")
	}

	s := &FileStream{r: r, path: path, digest: hex.EncodeToString(sum)}

	// Header.
	hr := newFieldReader(r, 0, indexOff, path)
	magic, err := hr.read(len(streamMagic), "magic")
	if err != nil {
		return nil, err
	}
	if [8]byte(magic) != streamMagic {
		return nil, formatErrf(path, "bad magic %q", magic)
	}
	version, err := hr.u32("version")
	if err != nil {
		return nil, err
	}
	if version != streamVersion {
		return nil, formatErrf(path, "unsupported version %d", version)
	}
	ci, err := hr.u32("chunk size")
	if err != nil {
		return nil, err
	}
	if ci == 0 || ci > maxChunkInstrs {
		return nil, formatErrf(path, "chunk size %d out of range", ci)
	}
	s.chunkInstrs = int(ci)
	nameLen, err := hr.u32("name length")
	if err != nil {
		return nil, err
	}
	if nameLen > maxNameLen {
		return nil, formatErrf(path, "name length %d too large", nameLen)
	}
	name, err := hr.read(int(nameLen), "name")
	if err != nil {
		return nil, err
	}
	s.name = string(name)
	nBlocks, err := hr.u32("block count")
	if err != nil {
		return nil, err
	}
	// Every block holds at least one warp, and every warp owns index
	// bytes: bound the count by the index actually present before
	// allocating per-block state.
	indexLen := hashedLen - indexOff
	if nBlocks == 0 || nBlocks > maxBlocks || int64(nBlocks)*minWarpIndex > indexLen {
		return nil, formatErrf(path, "block count %d out of range", nBlocks)
	}
	s.warpsPer = make([]int, nBlocks)
	s.warpStart = make([]int, nBlocks)
	totalWarps := 0
	for bi := range s.warpsPer {
		nw, err := hr.u32("block warp count")
		if err != nil {
			return nil, err
		}
		if nw == 0 || nw > maxWarps {
			return nil, formatErrf(path, "block %d warp count %d out of range", bi, nw)
		}
		s.warpStart[bi] = totalWarps
		s.warpsPer[bi] = int(nw)
		totalWarps += int(nw)
	}
	if int64(totalWarps)*minWarpIndex > indexLen {
		return nil, formatErrf(path, "%d warps need at least %d index bytes, file has %d",
			totalWarps, int64(totalWarps)*minWarpIndex, indexLen)
	}

	// Index. Chunks must tile the data region in order, which is what
	// the writer produces and what bounds Open's decode pass to one
	// read of each data byte.
	ir := newFieldReader(r, indexOff, indexLen, path)
	next := indexOff - hr.left // first byte after the header
	s.warps = make([]fileWarp, totalWarps)
	totalInstrs := 0
	for wi := range s.warps {
		n, err := ir.u32("warp instr count")
		if err != nil {
			return nil, err
		}
		totalInstrs += int(n)
		if n == 0 || totalInstrs > maxInstrs {
			return nil, formatErrf(path, "warp %d instr count %d out of range", wi, n)
		}
		nChunks := (int(n) + s.chunkInstrs - 1) / s.chunkInstrs
		if int64(nChunks)*chunkRefLen > ir.left {
			return nil, formatErrf(path, "index: warp %d needs %d chunk references, %d bytes left",
				wi, nChunks, ir.left)
		}
		w := fileWarp{instrs: int(n), chunks: make([]chunkRef, nChunks)}
		for c := range w.chunks {
			off, err := ir.u64("chunk offset")
			if err != nil {
				return nil, err
			}
			sz, err := ir.u32("chunk size")
			if err != nil {
				return nil, err
			}
			if sz == 0 || off != uint64(next) || next+int64(sz) > indexOff {
				return nil, formatErrf(path, "index: warp %d chunk %d spans [%d, %d), want a chunk starting at %d inside [0, %d)",
					wi, c, off, off+uint64(sz), next, indexOff)
			}
			w.chunks[c] = chunkRef{off: int64(off), size: sz}
			next += int64(sz)
		}
		s.warps[wi] = w
	}
	if next != indexOff || ir.left != 0 {
		return nil, formatErrf(path, "index: chunks end at %d with %d index bytes unread, want chunk data ending at %d",
			next, ir.left, indexOff)
	}

	// Decode every chunk once, so no well-sealed but malformed payload
	// can surface later as a mid-run Fill panic.
	var scratch Chunk
	for wi := range s.warps {
		for c := range s.warps[wi].chunks {
			scratch.Reset()
			if _, err := s.load(&s.warps[wi], c, &scratch); err != nil {
				return nil, err
			}
		}
	}
	return s, nil
}

// Close releases the underlying file.
func (s *FileStream) Close() error {
	if c, ok := s.r.(io.Closer); ok {
		return c.Close()
	}
	return nil
}

// Digest is the file's content hash (hex sha256 of everything but the
// footer).
func (s *FileStream) Digest() string { return s.digest }

func (s *FileStream) Name() string        { return s.name }
func (s *FileStream) Blocks() int         { return len(s.warpsPer) }
func (s *FileStream) Warps(block int) int { return s.warpsPer[block] }
func (s *FileStream) SpecKey() string     { return "file:sha256:" + s.digest }

// ChunkInstrs is the file's window size (cursor windows follow it).
func (s *FileStream) ChunkInstrs() int { return s.chunkInstrs }

// Fill decodes the chunk holding instruction start into c. The stream
// contract guarantees start falls on a chunk boundary. I/O failures
// after Open's full validation mean the file changed underneath us;
// Fill panics with a *FormatError, which the runner's recover boundary
// reports as the job's error.
func (s *FileStream) Fill(block, warp, start int, c *Chunk) ([]Instr, bool, bool) {
	fw := &s.warps[s.warpStart[block]+warp]
	if start%s.chunkInstrs != 0 || start < 0 || start >= fw.instrs {
		panic(formatErrf(s.path, "fill at %d: not a chunk boundary of warp with %d instrs", start, fw.instrs))
	}
	count, err := s.load(fw, start/s.chunkInstrs, c)
	if err != nil {
		panic(err)
	}
	return c.Instrs, start+count == fw.instrs, true
}

// load reads and decodes chunk ci of fw into c and returns its
// instruction count.
func (s *FileStream) load(fw *fileWarp, ci int, c *Chunk) (int, error) {
	ref := fw.chunks[ci]
	count := min(fw.instrs-ci*s.chunkInstrs, s.chunkInstrs)
	if cap(c.Buf) < int(ref.size) {
		c.Buf = make([]byte, ref.size)
	}
	c.Buf = c.Buf[:ref.size]
	if _, err := s.r.ReadAt(c.Buf, ref.off); err != nil {
		return 0, formatErrf(s.path, "reading chunk at %d: %v", ref.off, err)
	}
	if err := decodeChunk(c, count); err != nil {
		return 0, formatErrf(s.path, "chunk at %d: %v", ref.off, err)
	}
	return count, nil
}

// decodeChunk parses count instructions from c.Buf into c.Instrs, with
// per-lane addresses carved out of c.Addrs — no per-call allocations
// once the chunk's arenas reach their high-water capacity.
func decodeChunk(c *Chunk, count int) error {
	buf := c.Buf
	p := 0
	need := func(n int) bool { return len(buf)-p >= n }
	for i := 0; i < count; i++ {
		if !need(5) {
			return fmt.Errorf("insn %d: truncated header", i)
		}
		kind := Kind(buf[p])
		pc := binary.LittleEndian.Uint32(buf[p+1:])
		p += 5
		switch kind {
		case Compute:
			if !need(5) {
				return fmt.Errorf("insn %d: truncated compute", i)
			}
			lat := binary.LittleEndian.Uint32(buf[p:])
			lanes := buf[p+4]
			p += 5
			c.Instrs = append(c.Instrs, Instr{
				Kind: Compute, PC: pc, Latency: int(lat), ActiveLanes: int(lanes),
			})
		case Load, Store:
			if !need(1) {
				return fmt.Errorf("insn %d: truncated lane count", i)
			}
			lanes := int(buf[p])
			p++
			if !need(8 * lanes) {
				return fmt.Errorf("insn %d: truncated addresses", i)
			}
			aStart := len(c.Addrs)
			for l := 0; l < lanes; l++ {
				c.Addrs = append(c.Addrs, addr.Addr(binary.LittleEndian.Uint64(buf[p:])))
				p += 8
			}
			c.Instrs = append(c.Instrs, Instr{
				Kind: kind, PC: pc, ActiveLanes: lanes,
				Addrs: c.Addrs[aStart:len(c.Addrs):len(c.Addrs)],
			})
		default:
			return fmt.Errorf("insn %d: unknown kind %d", i, kind)
		}
	}
	if p != len(buf) {
		return fmt.Errorf("%d trailing bytes after %d instructions", len(buf)-p, count)
	}
	return nil
}

// appendInstr appends in's encoding to b.
func appendInstr(b []byte, in *Instr) ([]byte, error) {
	b = append(b, byte(in.Kind))
	b = binary.LittleEndian.AppendUint32(b, in.PC)
	if in.Kind == Compute {
		b = binary.LittleEndian.AppendUint32(b, uint32(in.Latency))
		return append(b, byte(in.ActiveLanes)), nil
	}
	if len(in.Addrs) > maxLanes {
		return b, fmt.Errorf("%d lanes exceeds format limit", len(in.Addrs))
	}
	b = append(b, byte(len(in.Addrs)))
	for _, a := range in.Addrs {
		b = binary.LittleEndian.AppendUint64(b, uint64(a))
	}
	return b, nil
}

// encoder batches encoded bytes into large writes to its sink (the
// destination and the checksum), tracking the file offset.
type encoder struct {
	out io.Writer
	buf []byte
	n   int64 // bytes already written to out
}

const encoderFlushBytes = 64 << 10

func (e *encoder) off() int64 { return e.n + int64(len(e.buf)) }

func (e *encoder) u32(v uint32) { e.buf = binary.LittleEndian.AppendUint32(e.buf, v) }

// flush writes the batch out once it is big enough, or always when
// force is set.
func (e *encoder) flush(force bool) error {
	if len(e.buf) == 0 || (!force && len(e.buf) < encoderFlushBytes) {
		return nil
	}
	_, err := e.out.Write(e.buf)
	e.n += int64(len(e.buf))
	e.buf = e.buf[:0]
	return err
}

// Encode writes src to w as a trace-stream recording windowed into
// chunkInstrs-instruction chunks (DefaultChunkInstrs if <= 0) and
// returns the SHA-256 the footer carries, which is the recording's
// Digest. It pulls one warp window at a time, so encoding never
// materializes the kernel. Shape problems are *FormatError.
func Encode(w io.Writer, src Stream, chunkInstrs int) (sum [sha256.Size]byte, err error) {
	if chunkInstrs <= 0 {
		chunkInstrs = DefaultChunkInstrs
	}
	if chunkInstrs > maxChunkInstrs {
		return sum, formatErrf("", "chunk size %d exceeds format limit %d", chunkInstrs, maxChunkInstrs)
	}
	h := sha256.New()
	e := &encoder{out: io.MultiWriter(w, h), buf: make([]byte, 0, encoderFlushBytes+4096)}

	// Header.
	name := src.Name()
	if len(name) > maxNameLen {
		return sum, formatErrf("", "kernel name longer than %d bytes", maxNameLen)
	}
	nBlocks := src.Blocks()
	if nBlocks <= 0 || nBlocks > maxBlocks {
		return sum, formatErrf("", "block count %d out of range", nBlocks)
	}
	e.buf = append(e.buf, streamMagic[:]...)
	e.u32(streamVersion)
	e.u32(uint32(chunkInstrs))
	e.u32(uint32(len(name)))
	e.buf = append(e.buf, name...)
	e.u32(uint32(nBlocks))
	totalWarps := 0
	for bi := 0; bi < nBlocks; bi++ {
		nw := src.Warps(bi)
		if nw <= 0 || nw > maxWarps {
			return sum, formatErrf("", "block %d warp count %d out of range", bi, nw)
		}
		totalWarps += nw
		e.u32(uint32(nw))
	}

	// Chunk data. Source windows are rewindowed instruction by
	// instruction into exact chunkInstrs-sized chunks (the reader
	// derives each chunk's instruction count from the declared size),
	// so any backend window size — a kernel's whole-warp window,
	// another file's different chunking — records correctly.
	index := make([]fileWarp, 0, totalWarps)
	chunk := &Chunk{}
	for bi := 0; bi < nBlocks; bi++ {
		for wi := 0; wi < src.Warps(bi); wi++ {
			fw := fileWarp{}
			ref := chunkRef{off: e.off()}
			inChunk := 0
			for start, eof := 0, false; !eof; {
				chunk.Reset()
				var win []Instr
				win, eof, _ = src.Fill(bi, wi, start, chunk)
				if len(win) == 0 && !eof {
					return sum, formatErrf("", "stream %q block %d warp %d: empty non-eof window at %d",
						name, bi, wi, start)
				}
				for i := range win {
					if inChunk == chunkInstrs {
						ref.size = uint32(e.off() - ref.off)
						fw.chunks = append(fw.chunks, ref)
						ref = chunkRef{off: e.off()}
						inChunk = 0
					}
					if e.buf, err = appendInstr(e.buf, &win[i]); err != nil {
						return sum, formatErrf("", "stream %q block %d warp %d insn %d: %v",
							name, bi, wi, start+i, err)
					}
					inChunk++
					if err := e.flush(false); err != nil {
						return sum, err
					}
				}
				fw.instrs += len(win)
				start += len(win)
			}
			if fw.instrs == 0 {
				return sum, formatErrf("", "stream %q block %d warp %d is empty", name, bi, wi)
			}
			ref.size = uint32(e.off() - ref.off)
			fw.chunks = append(fw.chunks, ref)
			index = append(index, fw)
		}
	}

	// Index.
	indexOff := e.off()
	for _, fw := range index {
		e.u32(uint32(fw.instrs))
		for _, ref := range fw.chunks {
			e.buf = binary.LittleEndian.AppendUint64(e.buf, uint64(ref.off))
			e.u32(ref.size)
		}
		if err := e.flush(false); err != nil {
			return sum, err
		}
	}
	if err := e.flush(true); err != nil {
		return sum, err
	}

	// Footer: indexOff and the checksum bypass the hasher (the hash
	// covers exactly the bytes before the footer).
	h.Sum(sum[:0])
	var footer [streamFooterLen]byte
	binary.LittleEndian.PutUint64(footer[:8], uint64(indexOff))
	copy(footer[8:], sum[:])
	copy(footer[streamFooterLen-8:], streamMagic[:])
	_, err = w.Write(footer[:])
	return sum, err
}

// WriteFile records src as a trace-stream file at path (see Encode).
func WriteFile(path string, src Stream, chunkInstrs int) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	_, err = Encode(f, src, chunkInstrs)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if fe, ok := err.(*FormatError); ok {
		fe.Path = path
	}
	return err
}
