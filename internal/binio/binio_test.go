package binio

import (
	"bytes"
	"errors"
	"io"
	"math"
	"testing"
)

func encodeFloats(t *testing.T, v []float64) []byte {
	t.Helper()
	var buf bytes.Buffer
	bw := NewWriter(&buf)
	bw.Floats(v)
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestFloatsRoundTrip(t *testing.T) {
	// Lengths around the chunk size, plus values whose bit patterns must
	// survive exactly.
	for _, n := range []int{0, 1, chunkFloats - 1, chunkFloats, chunkFloats + 1, 3*chunkFloats + 7} {
		v := make([]float64, n)
		for i := range v {
			v[i] = float64(i)*1.25 - 3
		}
		if n > 2 {
			v[0], v[1], v[2] = math.Copysign(0, -1), math.Inf(1), math.NaN()
		}
		enc := encodeFloats(t, v)
		if len(enc) != 8*(n+1) {
			t.Fatalf("n=%d: encoded %d bytes, want %d", n, len(enc), 8*(n+1))
		}
		br := NewReader(bytes.NewReader(enc))
		got := br.Floats()
		if br.Err != nil {
			t.Fatalf("n=%d: %v", n, br.Err)
		}
		if len(got) != n {
			t.Fatalf("n=%d: decoded %d floats", n, len(got))
		}
		for i := range v {
			if math.Float64bits(got[i]) != math.Float64bits(v[i]) {
				t.Fatalf("n=%d: float %d = %v, want %v", n, i, got[i], v[i])
			}
		}
	}
}

func TestFloatsNLyingHeaderFailsAtEOF(t *testing.T) {
	// A header claiming far more floats than the stream holds must fail with
	// the read error, and the error must stick for every later read.
	enc := encodeFloats(t, []float64{1, 2, 3})
	enc[0] = 0xff // length 255 over a 3-float body
	br := NewReader(bytes.NewReader(enc))
	if got := br.Floats(); got != nil {
		t.Fatalf("lying header decoded %d floats", len(got))
	}
	if !errors.Is(br.Err, io.ErrUnexpectedEOF) {
		t.Fatalf("err = %v, want unexpected EOF", br.Err)
	}
	first := br.Err
	if br.U64() != 0 || br.FloatsN(1) != nil || br.Err != first {
		t.Fatal("error is not sticky")
	}
}

func TestFloatsNAllocs(t *testing.T) {
	// Decoding allocates the result slice, not a word per value.
	const n = 10000
	enc := encodeFloats(t, make([]float64, n))[8:]
	rd := bytes.NewReader(enc)
	br := NewReader(rd)
	allocs := testing.AllocsPerRun(20, func() {
		rd.Reset(enc)
		br.R.Reset(rd)
		if got := br.FloatsN(n); len(got) != n {
			t.Fatalf("decoded %d floats: %v", len(got), br.Err)
		}
	})
	if allocs > 1 {
		t.Fatalf("FloatsN(%d) made %v allocations, want 1", n, allocs)
	}
	var sink bytes.Buffer
	bw := NewWriter(&sink)
	v := make([]float64, n)
	allocs = testing.AllocsPerRun(20, func() {
		sink.Reset()
		bw.FloatsN(v)
	})
	if allocs > 0 {
		t.Fatalf("Writer.FloatsN(%d) made %v allocations, want 0", n, allocs)
	}
}
