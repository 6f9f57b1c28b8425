// Package bitgroom implements the mantissa-manipulation "compressors" from
// the paper's plugin list: Bit Grooming (Zender, GMD'16) and Digit Rounding
// (Delaunay et al.). Both quantize IEEE floating point mantissas so that a
// requested number of significant decimal digits survives, then rely on a
// byte-shuffle + DEFLATE backend to shrink the now highly-redundant tail
// bytes. Decompression is exact with respect to the groomed values.
package bitgroom

import (
	"fmt"
	"math"

	"pressio/internal/core"
	"pressio/internal/lossless"
)

// Version is the plugin version.
const Version = "1.0.0-go"

// ErrCorrupt reports a malformed stream.
var ErrCorrupt = fmt.Errorf("bitgroom: %w", core.ErrCorrupt)

// bitsForDigits returns the number of explicit mantissa bits that must be
// kept to preserve nsd significant decimal digits (log2(10) ≈ 3.32 bits per
// digit, plus guard bits as in the NCO implementation).
func bitsForDigits(nsd int) int {
	return int(math.Ceil(float64(nsd)*math.Log2(10))) + 3
}

// GroomFloat32 applies bit grooming in place: the mantissa tail below the
// kept bits is alternately zeroed and set for successive values, which
// cancels the rounding bias that plain truncation would introduce.
func GroomFloat32(vals []float32, nsd int) {
	keep := bitsForDigits(nsd)
	if keep >= 23 {
		return
	}
	mask := uint32(0xffffffff) << uint(23-keep)
	tail := ^mask & 0x007fffff
	for i, v := range vals {
		b := math.Float32bits(v)
		if isSpecial32(b) {
			continue
		}
		if i&1 == 0 {
			b &= mask
		} else {
			b |= tail
		}
		vals[i] = math.Float32frombits(b)
	}
}

// GroomFloat64 is the float64 variant of GroomFloat32.
func GroomFloat64(vals []float64, nsd int) {
	keep := bitsForDigits(nsd)
	if keep >= 52 {
		return
	}
	mask := ^uint64(0) << uint(52-keep)
	tail := ^mask & 0x000fffffffffffff
	for i, v := range vals {
		b := math.Float64bits(v)
		if isSpecial64(b) {
			continue
		}
		if i&1 == 0 {
			b &= mask
		} else {
			b |= tail
		}
		vals[i] = math.Float64frombits(b)
	}
}

// RoundFloat32 applies digit rounding in place: round-to-nearest at the
// kept-bit position, which halves the worst-case error of grooming at the
// cost of a possible carry into the exponent (still a representable value).
func RoundFloat32(vals []float32, nsd int) {
	keep := bitsForDigits(nsd)
	if keep >= 23 {
		return
	}
	shift := uint(23 - keep)
	half := uint32(1) << (shift - 1)
	mask := uint32(0xffffffff) << shift
	for i, v := range vals {
		b := math.Float32bits(v)
		if isSpecial32(b) {
			continue
		}
		vals[i] = math.Float32frombits((b + half) & mask)
	}
}

// RoundFloat64 is the float64 variant of RoundFloat32.
func RoundFloat64(vals []float64, nsd int) {
	keep := bitsForDigits(nsd)
	if keep >= 52 {
		return
	}
	shift := uint(52 - keep)
	half := uint64(1) << (shift - 1)
	mask := ^uint64(0) << shift
	for i, v := range vals {
		b := math.Float64bits(v)
		if isSpecial64(b) {
			continue
		}
		vals[i] = math.Float64frombits((b + half) & mask)
	}
}

func isSpecial32(b uint32) bool { return b&0x7f800000 == 0x7f800000 } // Inf/NaN
func isSpecial64(b uint64) bool { return b&0x7ff0000000000000 == 0x7ff0000000000000 }

// kind selects grooming or rounding.
type kind int

const (
	kindGroom kind = iota
	kindRound
)

type plugin struct {
	*flavor
	nsd   int32
	level int32
}

// flavor is what the two registered names differ in, shared by every
// instance of one name.
type flavor struct {
	kind   kind
	name   string
	schema *core.Schema[plugin]
}

func newSchema(name string) *core.Schema[plugin] {
	return core.NewSchema(
		core.Field(name+":nsd", "significant decimal digits to keep", core.Closed(1, 15),
			func(p *plugin) *int32 { return &p.nsd }),
		core.Field(core.KeyLossless, "effort level of the DEFLATE back end", lossless.LevelBounds,
			func(p *plugin) *int32 { return &p.level }),
	)
}

func newPlugin(k kind, name string) func() core.CompressorPlugin {
	f := &flavor{kind: k, name: name, schema: newSchema(name)}
	return func() core.CompressorPlugin {
		return &plugin{flavor: f, nsd: 5}
	}
}

func init() {
	core.RegisterCompressor("bit_grooming", newPlugin(kindGroom, "bit_grooming"))
	core.RegisterCompressor("digit_rounding", newPlugin(kindRound, "digit_rounding"))
}

func (p *plugin) Prefix() string { return p.name }

func (p *plugin) Opts() core.Opts { return p.schema.For(p) }

func (p *plugin) Configuration() *core.Options {
	return core.StandardConfiguration(core.ThreadSafetyMultiple, "stable", Version, false)
}

func (p *plugin) CompressImpl(in, out *core.Data) error {
	groom32, groom64 := GroomFloat32, GroomFloat64
	if p.kind == kindRound {
		groom32, groom64 = RoundFloat32, RoundFloat64
	}
	groomed := in.Clone()
	pack := func() ([]byte, error) {
		elem := groomed.DType().Size()
		packed, err := lossless.Deflate(lossless.Shuffle(groomed.Bytes(), elem), int(p.level))
		buf := append(make([]byte, 0, len(packed)+1), byte(elem))
		return append(buf, packed...), err
	}
	return core.CompressFloat(groomed, out,
		func(v []float32, _ []uint64) ([]byte, error) { groom32(v, int(p.nsd)); return pack() },
		func(v []float64, _ []uint64) ([]byte, error) { groom64(v, int(p.nsd)); return pack() })
}

func (p *plugin) DecompressImpl(in, out *core.Data) error {
	b := in.Bytes()
	if len(b) < 1 {
		return ErrCorrupt
	}
	elem := int(b[0])
	// The stream records no element count, so the output the caller
	// declares bounds the inflate.
	raw, err := lossless.Inflate(b[1:], lossless.DeclaredLimit(out))
	if err != nil {
		return err
	}
	return core.FillDecompressed(out, lossless.Unshuffle(raw, elem))
}

func (p *plugin) Clone() core.CompressorPlugin {
	clone := *p
	return &clone
}
