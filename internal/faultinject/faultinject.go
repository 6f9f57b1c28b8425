// Package faultinject is the deterministic chaos substrate for the
// resilience layer: a compressor plugin and an IO wrapper that misbehave on
// purpose — transient and permanent errors, panics, delays, and bit flips in
// the compressed stream — with per-operation probabilities driven by a
// seeded PRNG, so every failure schedule is reproducible. It registers like
// any other plugin, which means the guard and fallback meta-compressors (and
// any future policy code) can be driven to their failure paths through the
// same generic interface production code uses.
package faultinject

import (
	"fmt"
	"math/rand"
	"sync"
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
			child: core.Child[*core.Compressor]{Name: "sz_threadsafe"},
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

// dice is the seeded PRNG of one injector. It sits behind a pointer so the
// plugin struct stays copyable, and behind a mutex because a parent hands out
// clone sequence numbers while its own schedule may be running.
type dice struct {
	mu     sync.Mutex
	rng    *rand.Rand
	clones int64
}

func newDice(seed int64) *dice { return &dice{rng: rand.New(rand.NewSource(seed))} }

// roll draws one uniform variate.
func (d *dice) roll() float64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.rng.Float64()
}

// bit draws a bit position in [0, n).
func (d *dice) bit(n int) int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.rng.Intn(n)
}

// nextClone numbers the clones taken from this instance, from 1.
func (d *dice) nextClone() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.clones++
	return d.clones
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
	child core.Child[*core.Compressor]
	rates Rates
	dice  *dice
}

func (p *plugin) Prefix() string  { return "faultinject" }
func (p *plugin) Version() string { return Version }

var schema = core.NewSchema(
	core.ChildRow(keyCompressor, "name of the compressor to sabotage; it receives every option set here",
		func(p *plugin) *core.Child[*core.Compressor] { return &p.child }),
	seedRow(keySeed, func(p *plugin) *int64 { return &p.rates.Seed }, func(p *plugin) **dice { return &p.dice }),
	rate(keyErrorRate, "probability of a transient error per call", func(p *plugin) *float64 { return &p.rates.Error }),
	rate(keyPermanentRate, "probability of a permanent error per call", func(p *plugin) *float64 { return &p.rates.Permanent }),
	rate(keyPanicRate, "probability of a panic per call", func(p *plugin) *float64 { return &p.rates.Panic }),
	rate(keyDelayRate, "probability of sleeping faultinject:delay_ms before a call", func(p *plugin) *float64 { return &p.rates.Delay }),
	core.Field(keyDelayMS, "length of an injected delay", core.AtLeast(0),
		func(p *plugin) *int64 { return &p.rates.DelayMS }),
	rate(keyBitflipRate, "probability of flipping one bit of the compressed stream", func(p *plugin) *float64 { return &p.rates.Bitflip }),
)

func (p *plugin) Options() *core.Options             { return schema.Options(p) }
func (p *plugin) SetOptions(o *core.Options) error   { return schema.Set(p, o) }
func (p *plugin) CheckOptions(o *core.Options) error { return schema.Check(p, o) }
func (p *plugin) Schema() []core.OptionSpec          { return schema.Specs() }

func (p *plugin) Configuration() *core.Options {
	return core.StandardConfiguration(core.ThreadSafetySerialized, "experimental", Version, false)
}

// inject runs the pre-operation faults (delay, panic, errors) for one call.
// It panics when the panic fault fires — the whole point is testing that the
// guard boundary converts it — and otherwise returns the injected error or
// nil.
func (p *plugin) inject(op string) error {
	if p.rates.Delay > 0 && p.dice.roll() < p.rates.Delay {
		trace.CounterAdd(CtrDelays, 1)
		trace.CounterAdd(trace.CtrFaultsInjected, 1)
		time.Sleep(time.Duration(p.rates.DelayMS) * time.Millisecond)
	}
	if p.rates.Panic > 0 && p.dice.roll() < p.rates.Panic {
		trace.CounterAdd(CtrPanics, 1)
		trace.CounterAdd(trace.CtrFaultsInjected, 1)
		panic(fmt.Sprintf("faultinject: injected panic in %s", op))
	}
	if p.rates.Error > 0 && p.dice.roll() < p.rates.Error {
		trace.CounterAdd(CtrErrors, 1)
		trace.CounterAdd(trace.CtrFaultsInjected, 1)
		return core.Transient(fmt.Errorf("faultinject: injected transient failure in %s", op))
	}
	if p.rates.Permanent > 0 && p.dice.roll() < p.rates.Permanent {
		trace.CounterAdd(CtrErrors, 1)
		trace.CounterAdd(trace.CtrFaultsInjected, 1)
		return fmt.Errorf("faultinject: injected permanent failure in %s", op)
	}
	return nil
}

func (p *plugin) CompressImpl(in, out *core.Data) error {
	comp, err := p.child.Get()
	if err != nil {
		return err
	}
	if err := p.inject("compress"); err != nil {
		return err
	}
	inner, err := core.Compress(comp, in)
	if err != nil {
		return err
	}
	if p.rates.Bitflip > 0 && inner.ByteLen() > 0 && p.dice.roll() < p.rates.Bitflip {
		trace.CounterAdd(CtrBitflips, 1)
		trace.CounterAdd(trace.CtrFaultsInjected, 1)
		buf := append([]byte(nil), inner.Bytes()...)
		pos := p.dice.bit(len(buf) * 8)
		buf[pos/8] ^= 1 << (pos % 8)
		out.Become(core.NewBytes(buf))
		return nil
	}
	out.Become(inner)
	return nil
}

func (p *plugin) DecompressImpl(in, out *core.Data) error {
	comp, err := p.child.Get()
	if err != nil {
		return err
	}
	if err := p.inject("decompress"); err != nil {
		return err
	}
	return comp.Decompress(in, out)
}

// Clone derives an independent instance whose PRNG is seeded from the parent
// seed and a per-parent clone counter, so a fleet of clones is collectively
// deterministic without sharing a schedule.
func (p *plugin) Clone() core.CompressorPlugin {
	clone := *p
	clone.child = p.child.Clone()
	clone.rates.Seed = p.rates.Seed*0x9e3779b9 + p.dice.nextClone()
	clone.dice = newDice(clone.rates.Seed)
	return &clone
}
