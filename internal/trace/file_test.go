package trace

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"
	"testing/quick"

	"repro/internal/addr"
	"repro/internal/prng"
)

// roundTrip encodes k into an in-memory recording with the given chunk
// size and reads it back through Open's parser and Materialize.
func roundTrip(t *testing.T, k *Kernel, chunkInstrs int) *Kernel {
	t.Helper()
	var buf bytes.Buffer
	sum, err := Encode(&buf, NewKernelStream(k), chunkInstrs)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	s, err := newFileStream(bytes.NewReader(buf.Bytes()), int64(buf.Len()), "")
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if s.Digest() != hex.EncodeToString(sum[:]) {
		t.Errorf("Encode returned sum %x, recording digest %s", sum, s.Digest())
	}
	return Materialize(s)
}

func TestSerializeRoundTrip(t *testing.T) {
	k := &Kernel{Name: "rt", Blocks: []*Block{{Warps: []*WarpTrace{{Instrs: []Instr{
		NewCompute(100, 4, 32),
		NewLoad(1, []addr.Addr{0, 4, 128}),
		NewStore(2, []addr.Addr{0xdeadbeef}),
	}}}}}}
	got := roundTrip(t, k, 2)
	if !reflect.DeepEqual(k, got) {
		t.Errorf("round trip mismatch:\n%+v\nvs\n%+v", k, got)
	}
}

func TestSerializeRoundTripRandom(t *testing.T) {
	f := func(seed uint64, nb, nw, ni, chunk uint8) bool {
		rng := prng.New(seed)
		k := &Kernel{Name: "r"}
		for b := 0; b < int(nb)%3+1; b++ {
			blk := &Block{}
			for w := 0; w < int(nw)%3+1; w++ {
				wt := &WarpTrace{}
				for i := 0; i < int(ni)%8+1; i++ {
					switch rng.Intn(3) {
					case 0:
						wt.Instrs = append(wt.Instrs, NewCompute(uint32(rng.Intn(1000)), 1+rng.Intn(16), 1+rng.Intn(32)))
					case 1:
						wt.Instrs = append(wt.Instrs, NewLoad(uint32(rng.Intn(1000)), randA(rng)))
					default:
						wt.Instrs = append(wt.Instrs, NewStore(uint32(rng.Intn(1000)), randA(rng)))
					}
				}
				blk.Warps = append(blk.Warps, wt)
			}
			k.Blocks = append(k.Blocks, blk)
		}
		return reflect.DeepEqual(k, roundTrip(t, k, int(chunk)%5+1))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func randA(rng *prng.Source) []addr.Addr {
	out := make([]addr.Addr, 1+rng.Intn(32))
	for i := range out {
		out[i] = addr.Addr(rng.Uint64())
	}
	return out
}

// reseal recomputes a recording's footer checksum in place, so a test
// can hand-craft or edit structure and still get past the checksum.
func reseal(data []byte) []byte {
	n := len(data) - streamFooterLen
	sum := sha256.Sum256(data[:n])
	copy(data[n+8:], sum[:])
	return data
}

// craft assembles a sealed recording from a hand-built header (plus
// any chunk data) and index.
func craft(head, index []byte) []byte {
	b := append(append([]byte{}, head...), index...)
	b = binary.LittleEndian.AppendUint64(b, uint64(len(head)))
	b = append(b, make([]byte, sha256.Size)...)
	return reseal(append(b, streamMagic[:]...))
}

// header builds a recording header declaring the given per-block warp
// counts.
func header(chunkInstrs uint32, warpsPer ...uint32) []byte {
	b := append([]byte{}, streamMagic[:]...)
	for _, v := range []uint32{streamVersion, chunkInstrs, 0, uint32(len(warpsPer))} {
		b = binary.LittleEndian.AppendUint32(b, v)
	}
	for _, w := range warpsPer {
		b = binary.LittleEndian.AppendUint32(b, w)
	}
	return b
}

func TestReadKernelRejectsGarbage(t *testing.T) {
	valid := func() []byte {
		var buf bytes.Buffer
		if _, err := Encode(&buf, NewKernelStream(testKernel(1, 2)), 4); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	badVersion := valid()
	binary.LittleEndian.PutUint32(badVersion[8:], 9)
	cases := map[string][]byte{
		"empty":       {},
		"bad magic":   []byte("NOTATRACEFILE###"),
		"truncated":   valid()[:40],
		"bad version": reseal(badVersion),
	}
	for name, data := range cases {
		_, err := ReadKernel(bytes.NewReader(data))
		var fe *FormatError
		if !errors.As(err, &fe) {
			t.Errorf("%s: error %v, want *FormatError", name, err)
		}
	}
}

func TestReadKernelRejectsOversizedCounts(t *testing.T) {
	// A header claiming 2^31 blocks.
	data := craft(header(64), nil)
	binary.LittleEndian.PutUint32(data[20:], 1<<31)
	if _, err := ReadKernel(bytes.NewReader(reseal(data))); err == nil {
		t.Error("oversized block count accepted")
	}
}

func TestReadKernelRejectsUnknownInstrKind(t *testing.T) {
	// One warp of one instruction whose kind byte is 9, in an
	// otherwise well-formed, correctly sealed recording.
	head := header(64, 1)
	off := len(head)
	head = append(head, 9, 0, 0, 0, 0) // kind 9, pc 0
	index := binary.LittleEndian.AppendUint32(nil, 1)
	index = binary.LittleEndian.AppendUint64(index, uint64(off))
	index = binary.LittleEndian.AppendUint32(index, 5)
	_, err := ReadKernel(bytes.NewReader(craft(head, index)))
	var fe *FormatError
	if !errors.As(err, &fe) {
		t.Errorf("unknown instruction kind: error %v, want *FormatError", err)
	}
}

// TestOpenBoundsAllocationByFileSize pins Open against hostile header
// counts: a few-KB file whose sealed header declares millions of warps
// (or one warp of millions of one-instruction chunks) must be rejected
// before anything sized by those counts is allocated.
func TestOpenBoundsAllocationByFileSize(t *testing.T) {
	warps := make([]uint32, 1024)
	for i := range warps {
		warps[i] = maxWarps - 1
	}
	oneWarp := binary.LittleEndian.AppendUint32(nil, maxInstrs)
	cases := map[string][]byte{
		"1024 blocks x 65535 warps": craft(header(64, warps...), []byte{1, 0, 0, 0}),
		"2^26 one-instr chunks":     craft(header(1, 1), oneWarp),
	}
	for name, data := range cases {
		t.Run(name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "hostile.dlpstrm")
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			fs, err := Open(path)
			runtime.ReadMemStats(&after)
			if err == nil {
				fs.Close()
				t.Fatal("Open accepted a hostile header")
			}
			var fe *FormatError
			if !errors.As(err, &fe) {
				t.Fatalf("Open error %T (%v), want *FormatError", err, err)
			}
			if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 16<<20 {
				t.Errorf("Open of a %d-byte file allocated %d MB", len(data), alloc>>20)
			}
		})
	}
}

// FuzzOpenStreamFile feeds arbitrary bytes, resealed so the fuzzer
// gets past the checksum, to Open's parser: every input either opens
// and then decodes on every warp, or is rejected with *FormatError.
func FuzzOpenStreamFile(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) >= streamFooterLen {
			data = reseal(append([]byte(nil), data...))
		}
		s, err := newFileStream(bytes.NewReader(data), int64(len(data)), "fuzz")
		if err != nil {
			var fe *FormatError
			if !errors.As(err, &fe) {
				t.Fatalf("error %T (%v), want *FormatError", err, err)
			}
			return
		}
		pool := NewChunkPool(s.ChunkInstrs())
		for b := 0; b < s.Blocks(); b++ {
			for w := 0; w < s.Warps(b); w++ {
				var cur Cursor
				cur.InitStream(s, pool, 128, b, w)
				for !cur.Exhausted() {
					cur.Advance()
				}
				cur.Release()
			}
		}
	})
}

func TestSerializeWorkloadScale(t *testing.T) {
	// A realistic kernel survives the trip and validates afterwards.
	k := &Kernel{Name: "big"}
	for b := 0; b < 4; b++ {
		blk := &Block{}
		for w := 0; w < 8; w++ {
			wt := &WarpTrace{}
			for i := 0; i < 100; i++ {
				wt.Instrs = append(wt.Instrs, NewLoad(uint32(i%7), []addr.Addr{addr.Addr(i * 128)}))
			}
			blk.Warps = append(blk.Warps, wt)
		}
		k.Blocks = append(k.Blocks, blk)
	}
	got := roundTrip(t, k, 0)
	if err := got.Validate(32); err != nil {
		t.Fatalf("deserialized kernel invalid: %v", err)
	}
	a, b := k.Summarize(128), got.Summarize(128)
	if *a != *b {
		t.Errorf("summaries differ: %+v vs %+v", a, b)
	}
}
