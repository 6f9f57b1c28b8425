// Package faultinject is the deterministic chaos substrate for the
// resilience layer: a compressor plugin and an IO wrapper that misbehave on
// purpose — transient and permanent errors, panics, delays, and bit flips in
// the compressed stream — with per-operation probabilities driven by a
// seeded PRNG, so every failure schedule is reproducible. It registers like
// any other plugin, which means the guard and fallback meta-compressors (and
// any future policy code) can be driven to their failure paths through the
// same generic interface production code uses. The paper's Fault Injector
// and Random Error Injector (fault_injector, noise_injector) live here too
// and draw through the same seeded schedule.
package faultinject

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"pressio/internal/core"
	"pressio/internal/trace"
)

// Option keys the faultinject compressor plugin owns.
const (
	keyCompressor    = "faultinject:compressor"
	keySeed          = "faultinject:seed"
	keyErrorRate     = "faultinject:error_rate"
	keyPermanentRate = "faultinject:permanent_error_rate"
	keyPanicRate     = "faultinject:panic_rate"
	keyDelayRate     = "faultinject:delay_rate"
	keyDelayMS       = "faultinject:delay_ms"
	keyBitflipRate   = "faultinject:bitflip_rate"
)

// Trace counters the injector maintains, one per fault kind, so chaos tests
// can reconcile what was injected against what the resilience layer reports
// having handled. trace.CtrFaultsInjected aggregates all kinds.
const (
	CtrErrors      = "faultinject.errors"
	CtrPanics      = "faultinject.panics"
	CtrDelays      = "faultinject.delays"
	CtrBitflips    = "faultinject.bitflips"
	CtrShortReads  = "faultinject.short_reads"
	CtrShortWrites = "faultinject.short_writes"
)

// Version is the faultinject plugin version.
const Version = "1.0.0"

func init() {
	core.RegisterCompressor("faultinject", func() core.CompressorPlugin {
		return &plugin{
			child: child{Name: "sz_threadsafe"},
			rates: Rates{Seed: 1},
			dice:  newDice(1),
		}
	})
}

// Rates configures the per-operation fault probabilities. Each rate is the
// probability (0..1) that the corresponding fault fires on one call; draws
// happen in a fixed order (delay, panic, transient error, permanent error,
// bit flip) so a given seed and configuration replays the same schedule.
type Rates struct {
	Seed      int64
	Error     float64 // transient error (core.IsTransient reports true)
	Permanent float64 // permanent error
	Panic     float64 // panic with a recognizable message
	Delay     float64 // sleep DelayMS before operating
	DelayMS   int64
	Bitflip   float64 // flip one random bit of the compressed stream
}

// dice is the seeded PRNG of one fault schedule, and the only one: every
// injector draws, counts, flips and cuts through it, so one seed names one
// schedule whichever injector runs it. It sits behind a pointer so the
// plugin structs stay copyable, and behind a mutex because its draws may
// come from more than one goroutine.
type dice struct {
	mu     sync.Mutex
	rng    *rand.Rand
	clones atomic.Int64
}

func newDice(seed int64) *dice { return &dice{rng: rand.New(rand.NewSource(seed))} }

// derive is the seed of the k-th schedule derived from seed.
func derive(seed, k int64) int64 { return seed*0x9e3779b9 + k }

// fork numbers the next clone taken from this schedule, from 1, and returns
// its seed and schedule, so a clone fleet is collectively deterministic
// without sharing a schedule.
func (d *dice) fork(seed int64) (int64, *dice) {
	seed = derive(seed, d.clones.Add(1))
	return seed, newDice(seed)
}

// intn draws an integer in [0, n).
func (d *dice) intn(n int) int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.rng.Intn(n)
}

// fires draws whether a fault of probability rate fires — drawing nothing
// when rate is 0 — and counts a fired fault under its kind's counter and
// trace.CtrFaultsInjected.
func (d *dice) fires(rate float64, counter string) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	if rate <= 0 || d.rng.Float64() >= rate {
		return false
	}
	trace.CounterAdd(counter, 1)
	trace.CounterAdd(trace.CtrFaultsInjected, 1)
	return true
}

// flip flips one drawn bit of buf in place.
func (d *dice) flip(buf []byte) {
	pos := d.intn(len(buf) * 8)
	buf[pos/8] ^= 1 << (pos % 8)
}

// cut draws the length of a strict, non-empty prefix of n > 1 bytes.
func (d *dice) cut(n int) int { return 1 + d.intn(n-1) }

// noise draws one noise value: gaussian with standard deviation scale, or
// uniform over [-scale, scale).
func (d *dice) noise(gaussian bool, scale float64) float64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	if gaussian {
		return d.rng.NormFloat64() * scale
	}
	return (d.rng.Float64()*2 - 1) * scale
}

// before runs the pre-operation faults of one call in their fixed order:
// delay, panic, transient error, permanent error. It panics when the panic
// fault fires — the whole point is testing that the guard boundary converts
// it — and otherwise returns the injected error or nil.
func (d *dice) before(r *Rates, op string) error {
	if d.fires(r.Delay, CtrDelays) {
		time.Sleep(time.Duration(r.DelayMS) * time.Millisecond)
	}
	if d.fires(r.Panic, CtrPanics) {
		panic(fmt.Sprintf("faultinject: injected panic in %s", op))
	}
	if d.fires(r.Error, CtrErrors) {
		return core.Transient(fmt.Errorf("faultinject: injected transient failure in %s", op))
	}
	if d.fires(r.Permanent, CtrErrors) {
		return fmt.Errorf("faultinject: injected permanent failure in %s", op)
	}
	return nil
}

// rate declares a per-call fault probability.
func rate[T any](key, doc string, field func(*T) *float64) core.Row[T] {
	return core.Field(key, doc, core.Closed(0, 1), field)
}

// seedRow declares an injector's seed; a new seed restarts the schedule.
func seedRow[T any](key string, seed func(*T) *int64, dice func(*T) **dice) core.Row[T] {
	return core.Opt(key, "seed of the fault schedule; a new seed restarts it", core.Bounds{},
		func(p *T) (int64, bool) { return *seed(p), true },
		func(p *T, v int64) {
			if v != *seed(p) {
				*seed(p), *dice(p) = v, newDice(v)
			}
		})
}

// plugin wraps a child compressor with the fault schedule. Clones derive
// fresh deterministic seeds so a cloned fleet (e.g. CompressMany workers)
// stays reproducible per clone.
type plugin struct {
	child child
	rates Rates
	dice  *dice
}

func (p *plugin) Prefix() string { return "faultinject" }

var schema = core.NewSchema(
	core.ChildRow(keyCompressor, "name of the compressor to sabotage; it receives every option set here",
		func(p *plugin) *child { return &p.child }),
	seedRow(keySeed, func(p *plugin) *int64 { return &p.rates.Seed }, func(p *plugin) **dice { return &p.dice }),
	rate(keyErrorRate, "probability of a transient error per call", func(p *plugin) *float64 { return &p.rates.Error }),
	rate(keyPermanentRate, "probability of a permanent error per call", func(p *plugin) *float64 { return &p.rates.Permanent }),
	rate(keyPanicRate, "probability of a panic per call", func(p *plugin) *float64 { return &p.rates.Panic }),
	rate(keyDelayRate, "probability of sleeping faultinject:delay_ms before a call", func(p *plugin) *float64 { return &p.rates.Delay }),
	core.Field(keyDelayMS, "length of an injected delay", core.AtLeast(0),
		func(p *plugin) *int64 { return &p.rates.DelayMS }),
	rate(keyBitflipRate, "probability of flipping one bit of the compressed stream", func(p *plugin) *float64 { return &p.rates.Bitflip }),
)

func (p *plugin) Opts() core.Opts { return schema.For(p) }

func (p *plugin) Configuration() *core.Options {
	return core.StandardConfiguration(core.ThreadSafetySerialized, "experimental", Version, false)
}

func (p *plugin) CompressImpl(in, out *core.Data) error {
	comp, err := p.child.Get()
	if err != nil {
		return err
	}
	if err := p.dice.before(&p.rates, "compress"); err != nil {
		return err
	}
	inner, err := core.Compress(comp, in)
	if err != nil {
		return err
	}
	if inner.ByteLen() > 0 && p.dice.fires(p.rates.Bitflip, CtrBitflips) {
		buf := append([]byte(nil), inner.Bytes()...)
		p.dice.flip(buf)
		inner = core.NewBytes(buf)
	}
	out.Become(inner)
	return nil
}

func (p *plugin) DecompressImpl(in, out *core.Data) error {
	comp, err := p.child.Get()
	if err != nil {
		return err
	}
	if err := p.dice.before(&p.rates, "decompress"); err != nil {
		return err
	}
	return comp.Decompress(in, out)
}

// Clone derives an independent instance with the next forked schedule.
func (p *plugin) Clone() core.CompressorPlugin {
	clone := *p
	clone.child = p.child.Clone()
	clone.rates.Seed, clone.dice = p.dice.fork(p.rates.Seed)
	return &clone
}
