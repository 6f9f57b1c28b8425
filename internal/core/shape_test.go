package core

import (
	"errors"
	"math"
	"slices"
	"testing"
)

func TestCheckedElems(t *testing.T) {
	for _, c := range []struct {
		dims []uint64
		max  uint64
		want uint64 // 0: ErrInvalidDims
	}{
		{[]uint64{3, 4, 5}, 60, 60},
		{[]uint64{3, 4, 5}, 59, 0},
		{nil, 100, 0},
		{[]uint64{3, 0, 5}, 100, 0},
		{[]uint64{1 << 32, 1 << 32}, math.MaxUint64, 0},                        // wraps to 0
		{[]uint64{1 << 33, 1 << 31, 3}, math.MaxUint64, 0},                     // wraps to 2^64 exactly, then 0
		{[]uint64{1<<32 + 1, 1 << 32}, math.MaxUint64, 0},                      // wraps to 2^32
		{[]uint64{1 << 30, 1 << 30}, math.MaxUint64, elemCeiling},              // the ceiling itself
		{[]uint64{1 << 30, 1 << 30, 2}, math.MaxUint64, 0},                     // past the ceiling, no wrap
		{[]uint64{7, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1}, 7, 7}, // rank is not its business
	} {
		n, err := CheckedElems(c.dims, c.max)
		if c.want == 0 {
			if !errors.Is(err, ErrInvalidDims) {
				t.Errorf("CheckedElems(%v, %d) = %d, %v; want ErrInvalidDims", c.dims, c.max, n, err)
			}
		} else if err != nil || n != c.want {
			t.Errorf("CheckedElems(%v, %d) = %d, %v; want %d", c.dims, c.max, n, err, c.want)
		}
	}
}

func TestGeometry(t *testing.T) {
	for _, c := range []struct {
		dims []uint64
		want [4]int
	}{
		{[]uint64{7}, [4]int{1, 1, 1, 7}},
		{[]uint64{5, 7}, [4]int{1, 1, 5, 7}},
		{[]uint64{3, 5, 7}, [4]int{1, 3, 5, 7}},
		{[]uint64{2, 3, 5, 7}, [4]int{2, 3, 5, 7}},
		{[]uint64{4, 2, 3, 5, 7}, [4]int{8, 3, 5, 7}},
	} {
		outer, nx, ny, nz, err := Geometry(c.dims, 1<<20)
		if got := [4]int{outer, nx, ny, nz}; err != nil || got != c.want {
			t.Errorf("Geometry(%v) = %v, %v; want %v", c.dims, got, err, c.want)
		}
	}
	if _, _, _, _, err := Geometry([]uint64{1 << 11, 1 << 10}, 1<<20); !errors.Is(err, ErrInvalidDims) {
		t.Errorf("Geometry past its cap: %v, want ErrInvalidDims", err)
	}
}

func TestShapeRoundTrip(t *testing.T) {
	dims := []uint64{3, 300, 70000}
	b, err := AppendFloatShape[float64]([]byte("MAGC"), dims)
	if err != nil {
		t.Fatal(err)
	}
	want := []byte{'M', 'A', 'G', 'C', 2, 3, 3, 0xac, 0x02, 0xf0, 0xa2, 0x04}
	if !slices.Equal(b, want) {
		t.Fatalf("header bytes % x, want % x", b, want)
	}
	dtype, got, n, err := ReadFloatShape(append(b[4:], 0xff), MaxRank, 1<<30)
	if err != nil || dtype != DTypeFloat64 || !slices.Equal(got, dims) || n != len(b)-4 {
		t.Fatalf("ReadFloatShape = %s %v %d, %v", dtype, got, n, err)
	}
	if _, elems, _, err := ReadShape(b[5:], MaxRank, 1<<30); err != nil || elems != 3*300*70000 {
		t.Fatalf("ReadShape counts %d elements, %v", elems, err)
	}
	if b, _ := AppendFloatShape[float32](nil, dims); b[0] != 1 {
		t.Fatalf("float32 dtype code %d, want 1", b[0])
	}
}

func TestReadShapeRejects(t *testing.T) {
	ten := []byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x02} // uvarint overflow
	for name, b := range map[string][]byte{
		"empty":            {},
		"rank zero":        {0},
		"rank past cap":    {4, 1, 1, 1, 1},
		"truncated extent": {2, 5},
		"cut uvarint":      {1, 0x80},
		"zero extent":      {2, 5, 0},
		"past elem cap":    {2, 0x80, 0x08, 0x80, 0x08}, // 1024 x 1024
		"uvarint overflow": append([]byte{1}, ten...),
	} {
		if dims, _, _, err := ReadShape(b, 3, 1<<20-1); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: ReadShape = %v, %v; want ErrCorrupt", name, dims, err)
		}
	}
	if _, _, _, err := ReadFloatShape([]byte{3, 1, 4}, MaxRank, 100); !errors.Is(err, ErrCorrupt) {
		t.Errorf("dtype code 3: %v, want ErrCorrupt", err)
	}
	if _, err := AppendShape(nil, make([]uint64, MaxRank+1)); !errors.Is(err, ErrInvalidDims) {
		t.Errorf("AppendShape past MaxRank: %v, want ErrInvalidDims", err)
	}
	if _, err := AppendShape(nil, nil); !errors.Is(err, ErrInvalidDims) {
		t.Errorf("AppendShape of no dims: %v, want ErrInvalidDims", err)
	}
}

func TestFloatDispatch(t *testing.T) {
	enc32 := func(v []float32, dims []uint64) ([]byte, error) {
		return []byte{32, byte(len(v)), byte(len(dims))}, nil
	}
	enc64 := func(v []float64, dims []uint64) ([]byte, error) {
		return []byte{64, byte(len(v)), byte(len(dims))}, nil
	}
	out := NewEmpty(DTypeByte, 0)
	if err := CompressFloat(FromFloat64s([]float64{1, 2, 3, 4}, 2, 2), out, enc32, enc64); err != nil ||
		!slices.Equal(out.Bytes(), []byte{64, 4, 2}) {
		t.Fatalf("CompressFloat(float64) = % x, %v", out.Bytes(), err)
	}
	if err := CompressFloat(FromInt32s([]int32{1}), out, enc32, enc64); !errors.Is(err, ErrInvalidDType) {
		t.Fatalf("CompressFloat(int32) = %v, want ErrInvalidDType", err)
	}
	dec32 := func(b []byte) ([]float32, []uint64, error) { return []float32{1, 2}, []uint64{2}, nil }
	dec64 := func(b []byte) ([]float64, []uint64, error) { return nil, nil, ErrCorrupt }
	if err := DecompressFloat(DTypeFloat32, nil, out, dec32, dec64); err != nil ||
		out.DType() != DTypeFloat32 || !slices.Equal(FloatsOf[float32](out), []float32{1, 2}) {
		t.Fatalf("DecompressFloat(float32) = %v, %v", out, err)
	}
	if err := DecompressFloat(DTypeFloat64, nil, out, dec32, dec64); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("DecompressFloat passes the decoder's error on: %v", err)
	}
	if err := DecompressFloat(DTypeInt8, nil, out, dec32, dec64); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("DecompressFloat(int8) = %v, want ErrCorrupt", err)
	}
	type meters float32
	if FloatDType[meters]() != DTypeFloat32 || FloatDType[float64]() != DTypeFloat64 {
		t.Fatal("FloatDType must follow the underlying width")
	}
}
