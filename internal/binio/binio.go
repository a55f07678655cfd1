// Package binio provides the little-endian sticky-error binary helpers
// shared by the provenance persistence layer (internal/core) and the
// session-snapshot envelope (priu): one place owns the allocation bounds and
// chunked-read behavior that keep hostile or corrupt streams from demanding
// absurd allocations.
package binio

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// MaxElems bounds decoded element counts (1 GiB of float64s). Reads
// additionally grow in chunks, so even an in-bounds lying header fails at
// EOF having allocated no more than the actual stream size.
const MaxElems = 1 << 27

// chunkFloats is how many float64s FloatsN moves per bulk copy through the
// codec's reused scratch buffer.
const chunkFloats = 512

// Writer accumulates little-endian values with a sticky error.
type Writer struct {
	W   *bufio.Writer
	Err error
	buf [8 * chunkFloats]byte
}

// NewWriter wraps w in a buffered sticky-error writer.
func NewWriter(w io.Writer) *Writer { return &Writer{W: bufio.NewWriter(w)} }

// Bytes writes raw bytes.
func (b *Writer) Bytes(p []byte) {
	if b.Err != nil {
		return
	}
	_, b.Err = b.W.Write(p)
}

// U64 writes a little-endian uint64.
func (b *Writer) U64(v uint64) {
	binary.LittleEndian.PutUint64(b.buf[:8], v)
	b.Bytes(b.buf[:8])
}

// I64 writes an int64.
func (b *Writer) I64(v int64) { b.U64(uint64(v)) }

// F64 writes a float64 bit pattern.
func (b *Writer) F64(v float64) { b.U64(math.Float64bits(v)) }

// Bool writes a 0/1 word.
func (b *Writer) Bool(v bool) {
	if v {
		b.U64(1)
	} else {
		b.U64(0)
	}
}

// Str writes a length-prefixed string.
func (b *Writer) Str(s string) {
	b.U64(uint64(len(s)))
	b.Bytes([]byte(s))
}

// Floats writes a length-prefixed float slice.
func (b *Writer) Floats(v []float64) {
	b.I64(int64(len(v)))
	b.FloatsN(v)
}

// FloatsN writes v's float64 bit patterns without a length prefix, encoding
// a chunk at a time into the reused scratch buffer.
func (b *Writer) FloatsN(v []float64) {
	for len(v) > 0 && b.Err == nil {
		k := min(len(v), chunkFloats)
		for i, x := range v[:k] {
			binary.LittleEndian.PutUint64(b.buf[8*i:], math.Float64bits(x))
		}
		b.Bytes(b.buf[:8*k])
		v = v[k:]
	}
}

// Flush commits buffered output, returning the sticky error if any.
func (b *Writer) Flush() error {
	if b.Err != nil {
		return b.Err
	}
	return b.W.Flush()
}

// Reader consumes little-endian values with a sticky error.
type Reader struct {
	R   *bufio.Reader
	Err error
	buf [8 * chunkFloats]byte
}

// NewReader wraps r in a buffered sticky-error reader.
func NewReader(r io.Reader) *Reader { return &Reader{R: bufio.NewReader(r)} }

// Fail records a decode error (first error wins).
func (b *Reader) Fail(format string, args ...any) {
	if b.Err == nil {
		b.Err = fmt.Errorf(format, args...)
	}
}

// U64 reads a little-endian uint64.
func (b *Reader) U64() uint64 {
	if b.Err != nil {
		return 0
	}
	if _, err := io.ReadFull(b.R, b.buf[:8]); err != nil {
		b.Err = err
		return 0
	}
	return binary.LittleEndian.Uint64(b.buf[:8])
}

// I64 reads an int64.
func (b *Reader) I64() int64 { return int64(b.U64()) }

// F64 reads a float64 bit pattern.
func (b *Reader) F64() float64 { return math.Float64frombits(b.U64()) }

// Bool reads a 0/1 word.
func (b *Reader) Bool() bool { return b.U64() != 0 }

// Str reads a length-prefixed string of at most maxLen bytes.
func (b *Reader) Str(maxLen int) string {
	n := b.U64()
	if b.Err != nil || n > uint64(maxLen) {
		b.Fail("binio: corrupt string length %d", n)
		return ""
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(b.R, buf); err != nil {
		b.Err = err
		return ""
	}
	return string(buf)
}

// Floats reads a length-prefixed float slice bounded by MaxElems.
func (b *Reader) Floats() []float64 {
	n := b.I64()
	if b.Err != nil || n < 0 || n > MaxElems {
		b.Fail("binio: corrupt float slice length %d", n)
		return nil
	}
	return b.FloatsN(n)
}

// FloatsN reads exactly n floats, decoding a chunk at a time from the
// reused scratch buffer. The result grows in bounded steps, so a lying
// header fails at EOF instead of forcing one huge upfront allocation.
func (b *Reader) FloatsN(n int64) []float64 {
	if b.Err != nil || n < 0 || n > MaxElems {
		b.Fail("binio: corrupt float count %d", n)
		return nil
	}
	out := make([]float64, 0, min(n, 1<<16))
	for rem := n; rem > 0; {
		k := int(min(rem, chunkFloats))
		p := b.buf[:8*k]
		if _, err := io.ReadFull(b.R, p); err != nil {
			b.Err = err
			return nil
		}
		for i := 0; i < k; i++ {
			out = append(out, math.Float64frombits(binary.LittleEndian.Uint64(p[8*i:])))
		}
		rem -= int64(k)
	}
	return out
}

// Magic consumes and verifies a fixed magic string.
func (b *Reader) Magic(want string) error {
	if b.Err != nil {
		return b.Err
	}
	buf := make([]byte, len(want))
	if _, err := io.ReadFull(b.R, buf); err != nil {
		b.Err = fmt.Errorf("binio: reading magic: %w", err)
		return b.Err
	}
	if string(buf) != want {
		b.Err = fmt.Errorf("binio: bad magic %q", buf)
		return b.Err
	}
	return nil
}
