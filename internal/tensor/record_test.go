package tensor

import (
	"encoding/binary"
	"strings"
	"testing"
)

func u32s(vs ...uint32) []byte {
	var b []byte
	for _, v := range vs {
		b = binary.LittleEndian.AppendUint32(b, v)
	}
	return b
}

func TestRecordRoundTrip(t *testing.T) {
	g := NewRNG(5)
	ts := []*Tensor{g.Randn(1, 2, 3), g.Randn(1, 7), FromSlice([]float32{4}), New(3, 0, 2)}
	var b []byte
	for _, x := range ts {
		b = AppendRecord(b, x)
	}
	r := NewReader(b)
	for i, want := range ts {
		got := r.Record()
		if got == nil || !SameShape(got, want) {
			t.Fatalf("record %d: %v, want shape %v", i, got, want.Shape())
		}
		for j, v := range want.Data {
			if got.Data[j] != v {
				t.Fatalf("record %d elem %d: %v want %v", i, j, got.Data[j], v)
			}
		}
	}
	if err := r.End(); err != nil {
		t.Fatal(err)
	}
}

// TestReaderRejects: every malformed layout fails with an error naming
// the first fault, and never allocates from an unchecked length.
func TestReaderRejects(t *testing.T) {
	max32 := uint32(1<<32 - 1)
	for _, c := range []struct {
		name string
		b    []byte
		read func(r *Reader)
		want string
	}{
		{"rank 9", u32s(9, 1, 1, 1, 1, 1, 1, 1, 1, 1, 0),
			func(r *Reader) { r.Record() }, "rank 9 exceeds 8"},
		{"dims whose product overflows int", u32s(2, max32, max32),
			func(r *Reader) { r.Record() }, "exceeds the 0 bytes left"},
		{"dims whose product times 4 wraps to 0", u32s(3, 1<<30, 1<<30, 4),
			func(r *Reader) { r.Record() }, "exceeds the 0 bytes left"},
		{"dims whose product wraps to 0", u32s(4, 1<<16, 1<<16, 1<<16, 1<<16),
			func(r *Reader) { r.Record() }, "exceeds the 0 bytes left"},
		{"one dim beyond the bytes left", append(u32s(2, 1, 3), make([]byte, 8)...),
			func(r *Reader) { r.Record() }, "exceeds the 8 bytes left"},
		{"product beyond the bytes left", append(u32s(2, 2, 2), make([]byte, 12)...),
			func(r *Reader) { r.Record() }, "shape [2 2] exceeds"},
		{"int8 shape beyond the bytes left", append(u32s(1, 5), 1, 2, 3, 4),
			func(r *Reader) { r.Shape(1) }, "exceeds the 4 bytes left"},
		{"values cut short", []byte{0, 0, 0, 0, 0},
			func(r *Reader) { r.F32s(2) }, "need 2 values, have 5 bytes"},
		{"Bytes past the end", []byte{1, 2, 3},
			func(r *Reader) { r.Bytes(4) }, "need 4 bytes, have 3"},
		{"Bytes(-1)", []byte{1, 2, 3},
			func(r *Reader) { r.Bytes(-1) }, "need -1 bytes"},
		{"U64 past the end", []byte{1, 2, 3, 4, 5, 6, 7},
			func(r *Reader) { r.U64() }, "need 4 bytes, have 3"},
		{"trailing bytes", []byte{1, 2, 3, 4, 5},
			func(r *Reader) { r.U32() }, "1 trailing bytes"},
	} {
		r := NewReader(c.b)
		c.read(r)
		err := r.End()
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: End() = %v, want an error containing %q", c.name, err, c.want)
		}
	}
}

// TestReaderFailureSticks: after the first failure every read returns
// its zero value and End still reports that first failure.
func TestReaderFailureSticks(t *testing.T) {
	r := NewReader(append(u32s(9), u32s(7, 7, 7, 7)...))
	if r.Record() != nil {
		t.Fatal("rank-9 record decoded")
	}
	if v := r.U32(); v != 0 {
		t.Fatalf("U32 after a failure = %d, want 0", v)
	}
	if r.U64() != 0 || r.Bytes(1) != nil || r.F32s(1) != nil || r.Record() != nil {
		t.Fatal("a read after a failure returned data")
	}
	if dims, n := r.Shape(4); dims != nil || n != 0 {
		t.Fatalf("Shape after a failure = %v, %d", dims, n)
	}
	if err := r.End(); err == nil || !strings.Contains(err.Error(), "rank 9") {
		t.Fatalf("End() = %v, want the first failure (rank 9)", err)
	}
}
