package pio

import (
	"encoding/binary"
	"fmt"
	"math"
	"os"

	"pressio/internal/core"
	"pressio/internal/fsx"
)

func init() {
	core.RegisterIO("petsc", func() core.IOPlugin { return &petsc{pathConfig{name: "petsc"}} })
}

// petscVecClassID is PETSc's binary Vec marker (VEC_FILE_CLASSID).
const petscVecClassID = 1211214

// petsc reads and writes PETSc binary Vec files: big-endian int32 class id,
// int32 length, then float64 values — the paper's PETSc IO plugin.
type petsc struct {
	pathConfig
}

func (p *petsc) Configuration() *core.Options {
	return core.StandardConfiguration(core.ThreadSafetyMultiple, "stable", "1.0.0", false)
}

func (p *petsc) Read(hint *core.Data) (*core.Data, error) {
	b, err := os.ReadFile(p.path)
	if err != nil {
		return nil, err
	}
	if len(b) < 8 {
		return nil, fmt.Errorf("%w: petsc vec too short", ErrFormat)
	}
	if binary.BigEndian.Uint32(b) != petscVecClassID {
		return nil, fmt.Errorf("%w: not a petsc vec (class id %d)", ErrFormat, binary.BigEndian.Uint32(b))
	}
	n := int(int32(binary.BigEndian.Uint32(b[4:])))
	if n < 0 || len(b) < 8+8*n {
		return nil, fmt.Errorf("%w: petsc vec truncated (%d values)", ErrFormat, n)
	}
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = math.Float64frombits(binary.BigEndian.Uint64(b[8+8*i:]))
	}
	out := core.FromFloat64s(vals, uint64(n))
	if hint != nil && hint.NumDims() > 0 {
		if err := out.Reshape(hint.Dims()...); err != nil {
			return nil, err
		}
	}
	if hint != nil && hint.DType() != core.DTypeUnset && hint.DType() != core.DTypeFloat64 {
		return out.CastTo(hint.DType())
	}
	return out, nil
}

func (p *petsc) Write(d *core.Data) error {
	if !d.DType().Numeric() {
		return fmt.Errorf("%w: cannot write %s as petsc vec", core.ErrInvalidDType, d.DType())
	}
	vals := d.AsFloat64s()
	out := make([]byte, 8+8*len(vals))
	binary.BigEndian.PutUint32(out, petscVecClassID)
	binary.BigEndian.PutUint32(out[4:], uint32(len(vals)))
	for i, v := range vals {
		binary.BigEndian.PutUint64(out[8+8*i:], math.Float64bits(v))
	}
	return fsx.AtomicWriteFile(p.path, out, 0o644)
}

func (p *petsc) Clone() core.IOPlugin {
	clone := *p
	return &clone
}
