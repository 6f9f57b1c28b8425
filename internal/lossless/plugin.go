package lossless

import (
	"encoding/binary"
	"fmt"

	"pressio/internal/core"
)

// Version is the plugin family version reported through Configuration.
const Version = "1.0.0"

// LevelBounds is the range of DEFLATE effort levels; the lossy plugins that
// use Deflate as their back end bound pressio:lossless with it too.
var LevelBounds = core.Closed(0, 9)

// codecKind selects the algorithm behind a generic byte-codec plugin.
type codecKind int

const (
	kindNoop codecKind = iota
	kindFlate
	kindGzip
	kindZlib
	kindRLE
	kindShuffle    // byte shuffle + DEFLATE (BLOSC-style)
	kindBitShuffle // bit shuffle + DEFLATE (BLOSC's second filter)
	kindDelta      // bitwise delta + varint + DEFLATE
)

// plugin is the shared implementation of every lossless compressor plugin.
// Lossless compressors treat the input as a byte stream (the paper's §V
// datatype-awareness discussion); shuffle and delta additionally use the
// element size from the dtype when available.
type plugin struct {
	*codec
	level int32
}

// codec is what the registered names differ in, shared by every instance of
// one name.
type codec struct {
	kind   codecKind
	name   string
	schema *core.Schema[plugin]
}

// newSchema declares the options of the codec registered as name: the generic
// effort level and its native spelling, both stored in plugin.level.
func newSchema(name string) *core.Schema[plugin] {
	level := func(p *plugin) *int32 { return &p.level }
	return core.NewSchema(
		core.Field(core.KeyLossless, "DEFLATE effort level (0 = default, 9 = best)", LevelBounds, level),
		core.Field(name+":level", "native spelling of pressio:lossless", LevelBounds, level),
	)
}

func newPlugin(kind codecKind, name string) func() core.CompressorPlugin {
	c := &codec{kind: kind, name: name, schema: newSchema(name)}
	return func() core.CompressorPlugin {
		return &plugin{codec: c, level: 6}
	}
}

func init() {
	core.RegisterCompressor("noop", newPlugin(kindNoop, "noop"))
	core.RegisterCompressor("flate", newPlugin(kindFlate, "flate"))
	core.RegisterCompressor("gzip", newPlugin(kindGzip, "gzip"))
	core.RegisterCompressor("zlib", newPlugin(kindZlib, "zlib"))
	core.RegisterCompressor("rle", newPlugin(kindRLE, "rle"))
	core.RegisterCompressor("shuffle", newPlugin(kindShuffle, "shuffle"))
	core.RegisterCompressor("bitshuffle", newPlugin(kindBitShuffle, "bitshuffle"))
	core.RegisterCompressor("delta", newPlugin(kindDelta, "delta"))
}

func (p *plugin) Prefix() string  { return p.name }
func (p *plugin) Version() string { return Version }

func (p *plugin) Options() *core.Options             { return p.schema.Options(p) }
func (p *plugin) SetOptions(o *core.Options) error   { return p.schema.Set(p, o) }
func (p *plugin) CheckOptions(o *core.Options) error { return p.schema.Check(p, o) }
func (p *plugin) Schema() []core.OptionSpec          { return p.schema.Specs() }

func (p *plugin) Configuration() *core.Options {
	return core.StandardConfiguration(core.ThreadSafetyMultiple, "stable", Version, false)
}

// header layout: [kind byte][elemSize byte] then payload.
func (p *plugin) CompressImpl(in, out *core.Data) error {
	raw := in.Bytes()
	elem := in.DType().Size()
	if elem == 0 {
		elem = 1
	}
	var payload []byte
	var err error
	switch p.kind {
	case kindNoop:
		payload = append([]byte(nil), raw...)
	case kindFlate:
		payload, err = Deflate(raw, int(p.level))
	case kindGzip:
		payload, err = Gzip(raw, int(p.level))
	case kindZlib:
		payload, err = Zlib(raw, int(p.level))
	case kindRLE:
		payload = RLE(raw)
	case kindShuffle:
		payload, err = Deflate(Shuffle(raw, elem), int(p.level))
	case kindBitShuffle:
		payload, err = Deflate(BitShuffle(raw, elem), int(p.level))
	case kindDelta:
		var deltas []byte
		deltas, err = DeltaVarint(raw, elem)
		if err == nil {
			payload, err = Deflate(deltas, int(p.level))
		}
	}
	if err != nil {
		return err
	}
	buf := make([]byte, 0, len(payload)+2)
	buf = append(buf, byte(p.kind), byte(elem))
	buf = append(buf, payload...)
	out.Become(core.NewBytes(buf))
	return nil
}

func (p *plugin) DecompressImpl(in, out *core.Data) error {
	b := in.Bytes()
	if len(b) < 2 {
		return ErrCorrupt
	}
	kind, elem := codecKind(b[0]), int(b[1])
	if kind != p.kind {
		return fmt.Errorf("%w: stream was produced by a different codec", ErrCorrupt)
	}
	payload := b[2:]
	// The stream records no size, so the output the caller declares bounds
	// the inflate.
	limit := DeclaredLimit(out)
	if kind == kindDelta && limit != Unbounded {
		// The count's varint, then one per element; UnDeltaVarint refuses a
		// count past 2^32.
		limit = (min(limit/uint64(max(elem, 1)), 1<<32) + 1) * binary.MaxVarintLen64
	}
	var raw []byte
	var err error
	switch kind {
	case kindNoop:
		raw = append([]byte(nil), payload...)
	case kindFlate:
		raw, err = Inflate(payload, limit)
	case kindGzip:
		raw, err = Gunzip(payload)
	case kindZlib:
		raw, err = Unzlib(payload)
	case kindRLE:
		raw, err = UnRLE(payload)
	case kindShuffle:
		raw, err = Inflate(payload, limit)
		if err == nil {
			raw = Unshuffle(raw, elem)
		}
	case kindBitShuffle:
		raw, err = Inflate(payload, limit)
		if err == nil {
			raw = BitUnshuffle(raw, elem)
		}
	case kindDelta:
		raw, err = Inflate(payload, limit)
		if err == nil {
			raw, err = UnDeltaVarint(raw, elem)
		}
	default:
		err = ErrCorrupt
	}
	if err != nil {
		return err
	}
	return core.FillDecompressed(out, raw)
}

func (p *plugin) Clone() core.CompressorPlugin {
	clone := *p
	return &clone
}
