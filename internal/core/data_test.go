package core

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
)

func TestNewDataShapes(t *testing.T) {
	d := NewData(DTypeFloat64, 3, 4, 5)
	if d.Len() != 60 || d.ByteLen() != 480 || d.NumDims() != 3 {
		t.Fatalf("shape bookkeeping: %v", d)
	}
	if !d.HasData() {
		t.Fatal("NewData should allocate")
	}
	e := NewEmpty(DTypeFloat32, 2, 2)
	if e.HasData() || e.Len() != 4 {
		t.Fatalf("empty: %v", e)
	}
}

func TestTypedViewsRoundTrip(t *testing.T) {
	d := NewData(DTypeFloat32, 4)
	v := d.Float32s()
	v[0], v[3] = 1.5, -2.5
	if d.Float32s()[0] != 1.5 || d.Float32s()[3] != -2.5 {
		t.Fatal("view does not alias storage")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("wrong-type view must panic")
		}
	}()
	_ = d.Float64s()
}

func TestFromSlicesZeroCopy(t *testing.T) {
	vals := []float64{1, 2, 3}
	d := FromFloat64s(vals)
	d.Float64s()[1] = 42
	if vals[1] != 42 {
		t.Fatal("FromFloat64s should not copy")
	}
	if d.NumDims() != 1 || d.Dims()[0] != 3 {
		t.Fatalf("default dims: %v", d.Dims())
	}
}

func TestMisalignedViewRealigns(t *testing.T) {
	// Build a deliberately misaligned byte buffer.
	raw := make([]byte, 33)
	buf := raw[1:33] // offset by 1: misaligned for float64
	for i := range buf {
		buf[i] = byte(i)
	}
	d, err := NewMove(DTypeFloat64, buf, 4)
	if err != nil {
		t.Fatal(err)
	}
	v := d.Float64s() // must not fault; realigns by copying
	if len(v) != 4 {
		t.Fatalf("view len %d", len(v))
	}
	// Contents preserved bit-for-bit.
	b2 := d.Bytes()
	for i := range buf {
		if b2[i] != buf[i] {
			t.Fatalf("realign corrupted byte %d", i)
		}
	}
}

func TestNewMoveValidatesSize(t *testing.T) {
	if _, err := NewMove(DTypeFloat32, make([]byte, 10), 3); err == nil {
		t.Fatal("10 bytes is not 3 float32s")
	}
	if _, err := NewMove(DTypeFloat32, make([]byte, 12), 3); err != nil {
		t.Fatal(err)
	}
}

func TestReshape(t *testing.T) {
	d := NewData(DTypeInt32, 6)
	if err := d.Reshape(2, 3); err != nil {
		t.Fatal(err)
	}
	if d.NumDims() != 2 || d.Dims()[0] != 2 {
		t.Fatalf("dims %v", d.Dims())
	}
	if err := d.Reshape(4, 4); err == nil {
		t.Fatal("reshape to wrong size must fail")
	}
}

func TestCloneIndependence(t *testing.T) {
	d := FromFloat32s([]float32{1, 2, 3})
	c := d.Clone()
	c.Float32s()[0] = 99
	if d.Float32s()[0] != 1 {
		t.Fatal("clone shares storage")
	}
	if !d.Equal(d.Clone()) {
		t.Fatal("clone should compare equal")
	}
}

func TestEqualSemantics(t *testing.T) {
	a := FromFloat32s([]float32{1, 2, 3, 4}, 2, 2)
	b := FromFloat32s([]float32{1, 2, 3, 4}, 4)
	if a.Equal(b) {
		t.Fatal("different shapes must not be equal")
	}
	c := FromFloat32s([]float32{1, 2, 3, 5}, 2, 2)
	if a.Equal(c) {
		t.Fatal("different contents must not be equal")
	}
}

func TestCastToRoundsAndConverts(t *testing.T) {
	d := FromFloat64s([]float64{1.4, 2.5, -3.6})
	i32, err := d.CastTo(DTypeInt32)
	if err != nil {
		t.Fatal(err)
	}
	got := i32.Int32s()
	// RoundToEven: 1.4->1, 2.5->2, -3.6->-4
	if got[0] != 1 || got[1] != 2 || got[2] != -4 {
		t.Fatalf("cast values %v", got)
	}
	f32, err := d.CastTo(DTypeFloat32)
	if err != nil {
		t.Fatal(err)
	}
	if f32.Float32s()[0] != 1.4 {
		t.Fatalf("cast to f32: %v", f32.Float32s())
	}
}

func TestAsFloat64sAllTypes(t *testing.T) {
	for _, dt := range DTypes() {
		if dt == DTypeByte {
			continue
		}
		d := NewData(dt, 4)
		vals := d.AsFloat64s()
		if len(vals) != 4 {
			t.Fatalf("%v: len %d", dt, len(vals))
		}
		for _, v := range vals {
			if v != 0 {
				t.Fatalf("%v: zero data gave %v", dt, v)
			}
		}
	}
}

func TestValueRange(t *testing.T) {
	d := FromFloat32s([]float32{3, -1, float32(math.NaN()), 7, 2})
	lo, hi := ValueRange(d)
	if lo != -1 || hi != 7 {
		t.Fatalf("range [%v, %v]", lo, hi)
	}
	empty := FromFloat32s([]float32{})
	lo, hi = ValueRange(empty)
	if lo != 0 || hi != 0 {
		t.Fatalf("empty range [%v, %v]", lo, hi)
	}
}

func TestResolveAbsBound(t *testing.T) {
	d := FromFloat64s([]float64{0, 10})
	if got := ResolveAbsBound(d, BoundAbs, 0.5); got != 0.5 {
		t.Fatalf("abs: %v", got)
	}
	if got := ResolveAbsBound(d, BoundValueRangeRel, 0.01); got != 0.1 {
		t.Fatalf("rel: %v", got)
	}
}

func TestReshapeClonePropertyLaws(t *testing.T) {
	f := func(vals []float64) bool {
		if len(vals) == 0 {
			return true
		}
		d := FromFloat64s(vals)
		c := d.Clone()
		// Clone equality and reshape identity.
		if !c.Equal(d) {
			return false
		}
		if err := c.Reshape(uint64(len(vals))); err != nil {
			return false
		}
		return c.Equal(d)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDTypeParsing(t *testing.T) {
	for _, dt := range DTypes() {
		got, err := ParseDType(dt.String())
		if err != nil || got != dt {
			t.Fatalf("%v: parse(%q) = %v, %v", dt, dt.String(), got, err)
		}
	}
	if _, err := ParseDType("quaternion"); err == nil {
		t.Fatal("expected parse error")
	}
	if dt, _ := ParseDType("double"); dt != DTypeFloat64 {
		t.Fatal("alias double failed")
	}
	if DTypeFloat32.Size() != 4 || DTypeInt64.Size() != 8 || DTypeByte.Size() != 1 {
		t.Fatal("sizes wrong")
	}
	if !DTypeFloat32.Float() || DTypeInt32.Float() {
		t.Fatal("Float() wrong")
	}
	if !DTypeInt8.Signed() || DTypeUint8.Signed() {
		t.Fatal("Signed() wrong")
	}
}

func TestFillDecompressed(t *testing.T) {
	out := NewEmpty(DTypeFloat32, 2, 2)
	raw := make([]byte, 16)
	if err := FillDecompressed(out, raw); err != nil {
		t.Fatal(err)
	}
	if out.DType() != DTypeFloat32 || out.NumDims() != 2 {
		t.Fatalf("hint not honored: %v", out)
	}
	// Size mismatch falls back to bytes.
	out2 := NewEmpty(DTypeFloat32, 100)
	if err := FillDecompressed(out2, raw); err != nil {
		t.Fatal(err)
	}
	if out2.DType() != DTypeByte {
		t.Fatalf("fallback: %v", out2)
	}
}

// TestWrappingDimsRejected: a shape whose element count overflows uint64
// must not match a small (here empty) buffer.
func TestWrappingDimsRejected(t *testing.T) {
	if d, err := NewMove(DTypeFloat32, nil, 1<<32, 1<<32); !errors.Is(err, ErrInvalidDims) {
		t.Fatalf("NewMove with 2^64 elements = %v, %v; want ErrInvalidDims", d, err)
	}
	if err := NewBytes(nil).Reshape(1<<32, 1<<32); !errors.Is(err, ErrInvalidDims) {
		t.Fatalf("Reshape to 2^64 elements = %v; want ErrInvalidDims", err)
	}
	if n := NewEmpty(DTypeFloat32, 1<<32, 1<<32).Len(); n == 0 {
		t.Fatal("Len of a 2^64-element shape wrapped to 0")
	}
}
