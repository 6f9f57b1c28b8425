package rangecoder

import "errors"

// ErrCorrupt reports a code no encoder could have produced.
var ErrCorrupt = errors.New("rangecoder: code lies past the model's total")

// A Model's constants are part of every format coded with it: encoder and
// decoder agree on each symbol's interval only if they adapt in lockstep.
const (
	modelBits  = 15 // the scaled frequencies sum to 1<<modelBits: a shift splits the range
	modelTotal = 1 << modelBits
	Symbols    = 65 // a Model's alphabet: the bit lengths 0..64 of a 64-bit word
	// MaxSymbolsPerByte bounds the symbols one coded byte can carry: every
	// symbol keeps a unit of the total, so the likeliest has probability at
	// most 1-(Symbols-1)/total and costs more than (Symbols-1)/total bits.
	MaxSymbolsPerByte = 8 * modelTotal / (Symbols - 1)

	countInc    = 16      // added to a symbol's count each time it is coded
	countLimit  = 1 << 16 // counts halve at a rebuild once they sum past it
	firstPeriod = 16      // symbols coded before the first rebuild,
	maxPeriod   = 256     // doubling up to this
	lookupShift = modelBits - 7
)

// Model is an adaptive frequency model over the symbols 0..Symbols-1. It
// counts the symbols coded with it and rebuilds from the counts, at doubling
// intervals, the cumulative frequencies the coder splits its range by.
type Model struct {
	left, period int // symbols until the next rebuild; the interval
	sum          uint32
	count        [Symbols]uint32
	cum          [Symbols + 1]uint32 // symbol s owns [cum[s], cum[s+1])
	// lookup[t>>lookupShift] is the symbol owning the bucket's first t: the
	// decoder's search starts there.
	lookup [modelTotal >> lookupShift]uint8
}

// NewModel returns a model that starts out uniform.
func NewModel() *Model {
	m := &Model{period: firstPeriod / 2, sum: Symbols}
	for i := range m.count {
		m.count[i] = 1
	}
	m.rebuild()
	return m
}

func (m *Model) update(s int) {
	m.count[s] += countInc
	m.sum += countInc
	if m.left--; m.left == 0 {
		m.rebuild()
	}
}

// rebuild scales the counts to the total: one unit per symbol so every
// symbol stays codable, the rest in proportion to the counts, and what
// rounding leaves over to the most frequent symbol.
func (m *Model) rebuild() {
	if m.sum > countLimit {
		m.sum = 0
		for i, c := range m.count {
			m.count[i] = (c + 1) >> 1
			m.sum += m.count[i]
		}
	}
	// No count exceeds sum, so c·scale < 2^32·(modelTotal-Symbols) fits.
	scale := uint64(modelTotal-Symbols) << 32 / uint64(m.sum)
	top, used := 0, uint32(0)
	for i, c := range m.count {
		m.cum[i+1] = 1 + uint32(uint64(c)*scale>>32)
		used += m.cum[i+1]
		if c > m.count[top] {
			top = i
		}
	}
	m.cum[top+1] += modelTotal - used
	for i := 1; i <= Symbols; i++ {
		m.cum[i] += m.cum[i-1]
	}
	for j, s := 0, 0; j < len(m.lookup); j++ {
		for m.cum[s+1] <= uint32(j)<<lookupShift {
			s++
		}
		m.lookup[j] = uint8(s)
	}
	m.period = min(2*m.period, maxPeriod)
	m.left = m.period
}

// EncodeSymbol encodes symbol s < Symbols with m, then adapts m.
//
//pressio:hotpath measured by the benchmark's fpzip.* per-layer rows
func (e *Encoder) EncodeSymbol(m *Model, s int) {
	r := e.rng >> modelBits
	e.low += uint64(r * m.cum[s])
	e.rng = r * (m.cum[s+1] - m.cum[s])
	e.normalize()
	m.update(s)
}

// DecodeSymbol decodes a symbol EncodeSymbol coded with m, then adapts m.
// A code past the model's total, which only bytes no encoder wrote can
// hold, is ErrCorrupt.
//
//pressio:hotpath measured by the benchmark's fpzip.* per-layer rows
func (d *Decoder) DecodeSymbol(m *Model) (int, error) {
	r := d.rng >> modelBits
	t := d.code / r
	if t >= modelTotal {
		return 0, ErrCorrupt
	}
	s := int(m.lookup[t>>lookupShift])
	for m.cum[s+1] <= t {
		s++
	}
	d.code -= r * m.cum[s]
	d.rng = r * (m.cum[s+1] - m.cum[s])
	d.normalize()
	m.update(s)
	return s, nil
}
