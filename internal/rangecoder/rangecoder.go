// Package rangecoder implements an adaptive range coder (arithmetic coder)
// in the style used by fpzip and LZMA: a 32-bit range, coding either binary
// decisions with 11-bit adaptive bit probabilities or symbols of a small
// alphabet with an adaptive frequency Model. The fpzip-family compressor
// uses it to entropy code residual magnitude classes.
package rangecoder

const (
	probBits  = 11
	probInit  = 1 << (probBits - 1) // 0.5
	probMoves = 5                   // adaptation rate
	topValue  = 1 << 24
)

// Prob is an adaptive probability state for a single binary context.
type Prob uint16

// NewProb returns an unbiased probability state.
func NewProb() Prob { return probInit }

// Encoder writes bits into a byte buffer using range coding. The carry
// propagation follows the classic LZMA scheme: the first emitted byte is a
// spurious zero the decoder skips during initialization.
type Encoder struct {
	low      uint64
	rng      uint32
	cacheSz  int64
	cache    byte
	out      []byte
	finished bool
}

// NewEncoder returns an Encoder ready for use.
func NewEncoder() *Encoder { return NewEncoderOn(nil) }

// NewEncoderOn returns an Encoder that writes into buf's capacity, whose
// contents it ignores, and grows past it by append.
func NewEncoderOn(buf []byte) *Encoder { return &Encoder{rng: 0xFFFFFFFF, cacheSz: 1, out: buf[:0]} }

func (e *Encoder) shiftLow() {
	if uint32(e.low) < 0xFF000000 || (e.low>>32) != 0 {
		temp := e.cache
		for {
			e.out = append(e.out, temp+byte(e.low>>32))
			temp = 0xFF
			e.cacheSz--
			if e.cacheSz == 0 {
				break
			}
		}
		e.cache = byte(e.low >> 24)
	}
	e.cacheSz++
	e.low = (e.low << 8) & 0xFFFFFFFF
}

func (e *Encoder) normalize() {
	for e.rng < topValue {
		e.rng <<= 8
		e.shiftLow()
	}
}

// EncodeBit encodes bit b (0 or 1) with the adaptive probability p,
// updating p toward the observed bit.
//
//pressio:hotpath measured by the benchmark's rangecoder.* per-layer rows
func (e *Encoder) EncodeBit(p *Prob, b int) {
	bound := (e.rng >> probBits) * uint32(*p)
	if b == 0 {
		e.rng = bound
		*p += (1<<probBits - *p) >> probMoves
	} else {
		e.low += uint64(bound)
		e.rng -= bound
		*p -= *p >> probMoves
	}
	e.normalize()
}

// Finish flushes the coder and returns the encoded bytes. The Encoder must
// not be used afterwards.
func (e *Encoder) Finish() []byte {
	if !e.finished {
		for i := 0; i < 5; i++ {
			e.shiftLow()
		}
		e.finished = true
	}
	return e.out
}

// Decoder reads bits encoded by Encoder.
type Decoder struct {
	code uint32
	rng  uint32
	in   []byte
	pos  int
}

// NewDecoder wraps the encoded bytes for decoding.
func NewDecoder(b []byte) *Decoder {
	d := &Decoder{rng: 0xFFFFFFFF, in: b}
	// Read 5 bytes: the first is the encoder's spurious initial byte and
	// shifts out of the 32-bit code register entirely.
	for i := 0; i < 5; i++ {
		d.code = d.code<<8 | uint32(d.nextByte())
	}
	return d
}

func (d *Decoder) nextByte() byte {
	if d.pos < len(d.in) {
		b := d.in[d.pos]
		d.pos++
		return b
	}
	return 0
}

func (d *Decoder) normalize() {
	for d.rng < topValue {
		d.rng <<= 8
		d.code = d.code<<8 | uint32(d.nextByte())
	}
}

// DecodeBit decodes one bit with the adaptive probability p.
//
//pressio:hotpath measured by the benchmark's rangecoder.* per-layer rows
func (d *Decoder) DecodeBit(p *Prob) int {
	bound := (d.rng >> probBits) * uint32(*p)
	var bit int
	if d.code < bound {
		d.rng = bound
		*p += (1<<probBits - *p) >> probMoves
		bit = 0
	} else {
		d.code -= bound
		d.rng -= bound
		*p -= *p >> probMoves
		bit = 1
	}
	d.normalize()
	return bit
}

// DecodeBitsRaw decodes n (≤ 32) equiprobable bits, MSB first. Only FPZ1
// fpzip streams carry such bits, and nothing writes those any more: the
// encoding half lives in the tests, as the generator for this one's.
func (d *Decoder) DecodeBitsRaw(n uint) uint32 {
	var v uint32
	for i := uint(0); i < n; i++ {
		d.rng >>= 1
		var bit uint32
		if d.code >= d.rng {
			d.code -= d.rng
			bit = 1
		}
		v = v<<1 | bit
		d.normalize()
	}
	return v
}
