package faultinject

import (
	"fmt"
	"io"
	"time"

	"pressio/internal/core"
	"pressio/internal/trace"
)

// Option keys the faultinject IO wrapper owns.
const (
	keyIOChild          = "faultinject_io:io"
	keyIOSeed           = "faultinject_io:seed"
	keyIOErrorRate      = "faultinject_io:error_rate"
	keyIODelayRate      = "faultinject_io:delay_rate"
	keyIODelayMS        = "faultinject_io:delay_ms"
	keyIOBitflipRate    = "faultinject_io:bitflip_rate"
	keyIOShortReadRate  = "faultinject_io:shortread_rate"
	keyIOShortWriteRate = "faultinject_io:shortwrite_rate"
)

func init() {
	core.RegisterIO("faultinject", func() core.IOPlugin {
		return &ioPlugin{child: core.Child[core.IOPlugin]{Name: "posix"}, seed: 1, dice: newDice(1)}
	})
}

// ioPlugin wraps a child IO plugin with the same deterministic fault
// schedule the compressor injector uses: transient errors, delays, and bit
// flips in the bytes read. It lets IO-level failure handling (retry-on-read,
// integrity validation of frames loaded from disk) be tested without real
// storage faults.
type ioPlugin struct {
	child core.Child[core.IOPlugin]

	seed           int64
	errorRate      float64
	delayRate      float64
	delayMS        int64
	bitflipRate    float64
	shortReadRate  float64
	shortWriteRate float64

	dice *dice
}

func (p *ioPlugin) Prefix() string { return "faultinject" }

var ioSchema = core.NewSchema(
	core.ChildRow(keyIOChild, "name of the IO plugin to sabotage; it receives every option set here",
		func(p *ioPlugin) *core.Child[core.IOPlugin] { return &p.child }),
	seedRow(keyIOSeed, func(p *ioPlugin) *int64 { return &p.seed }, func(p *ioPlugin) **dice { return &p.dice }),
	rate(keyIOErrorRate, "probability of a transient error per call", func(p *ioPlugin) *float64 { return &p.errorRate }),
	rate(keyIODelayRate, "probability of sleeping faultinject_io:delay_ms before a call", func(p *ioPlugin) *float64 { return &p.delayRate }),
	core.Field(keyIODelayMS, "length of an injected delay", core.AtLeast(0),
		func(p *ioPlugin) *int64 { return &p.delayMS }),
	rate(keyIOBitflipRate, "probability of flipping one bit of the bytes read", func(p *ioPlugin) *float64 { return &p.bitflipRate }),
	rate(keyIOShortReadRate, "probability of returning a strict prefix of the bytes read", func(p *ioPlugin) *float64 { return &p.shortReadRate }),
	rate(keyIOShortWriteRate, "probability of persisting a strict prefix and reporting a short write", func(p *ioPlugin) *float64 { return &p.shortWriteRate }),
)

func (p *ioPlugin) Options() *core.Options             { return ioSchema.Options(p) }
func (p *ioPlugin) SetOptions(o *core.Options) error   { return ioSchema.Set(p, o) }
func (p *ioPlugin) CheckOptions(o *core.Options) error { return ioSchema.Check(p, o) }
func (p *ioPlugin) Schema() []core.OptionSpec          { return ioSchema.Specs() }

func (p *ioPlugin) Configuration() *core.Options {
	return core.StandardConfiguration(core.ThreadSafetySerialized, "experimental", Version, false)
}

func (p *ioPlugin) inject(op string) error {
	if p.delayRate > 0 && p.dice.roll() < p.delayRate {
		trace.CounterAdd(CtrDelays, 1)
		trace.CounterAdd(trace.CtrFaultsInjected, 1)
		time.Sleep(time.Duration(p.delayMS) * time.Millisecond)
	}
	if p.errorRate > 0 && p.dice.roll() < p.errorRate {
		trace.CounterAdd(CtrErrors, 1)
		trace.CounterAdd(trace.CtrFaultsInjected, 1)
		return core.Transient(fmt.Errorf("faultinject: injected transient IO failure in %s", op))
	}
	return nil
}

func (p *ioPlugin) Read(hint *core.Data) (*core.Data, error) {
	child, err := p.child.Get()
	if err != nil {
		return nil, err
	}
	if err := p.inject("read"); err != nil {
		return nil, err
	}
	d, err := child.Read(hint)
	if err != nil {
		return nil, err
	}
	if p.shortReadRate > 0 && d.ByteLen() > 1 && p.dice.roll() < p.shortReadRate {
		// A short read delivers a strict prefix of the stream, as a torn
		// storage read or truncated transfer would. The prefix has no valid
		// shape, so it comes back as plain bytes; consumers (the frame
		// decoder, format parsers) must detect the truncation themselves.
		trace.CounterAdd(CtrShortReads, 1)
		trace.CounterAdd(trace.CtrFaultsInjected, 1)
		cut := 1 + p.dice.bit(int(d.ByteLen())-1)
		return core.NewBytes(append([]byte(nil), d.Bytes()[:cut]...)), nil
	}
	if p.bitflipRate > 0 && d.ByteLen() > 0 && p.dice.roll() < p.bitflipRate {
		trace.CounterAdd(CtrBitflips, 1)
		trace.CounterAdd(trace.CtrFaultsInjected, 1)
		buf := append([]byte(nil), d.Bytes()...)
		pos := p.dice.bit(len(buf) * 8)
		buf[pos/8] ^= 1 << (pos % 8)
		flipped := core.NewBytes(buf)
		if d.DType() != core.DTypeByte || d.NumDims() != 1 {
			if reshaped, err := core.NewMove(d.DType(), buf, d.Dims()...); err == nil {
				flipped = reshaped
			}
		}
		return flipped, nil
	}
	return d, nil
}

func (p *ioPlugin) Write(d *core.Data) error {
	child, err := p.child.Get()
	if err != nil {
		return err
	}
	if err := p.inject("write"); err != nil {
		return err
	}
	if p.shortWriteRate > 0 && d.ByteLen() > 1 && p.dice.roll() < p.shortWriteRate {
		// A short write persists a strict prefix and reports the failure, as
		// an interrupted transfer would: only part of the payload reaches the
		// sink, and the caller gets a transient io.ErrShortWrite to retry on.
		// The torn artifact is what integrity frames must catch on read.
		trace.CounterAdd(CtrShortWrites, 1)
		trace.CounterAdd(trace.CtrFaultsInjected, 1)
		cut := 1 + p.dice.bit(int(d.ByteLen())-1)
		if err := child.Write(core.NewBytes(append([]byte(nil), d.Bytes()[:cut]...))); err != nil {
			return err
		}
		return core.Transient(fmt.Errorf("faultinject: %w after %d of %d bytes", io.ErrShortWrite, cut, d.ByteLen()))
	}
	return child.Write(d)
}

func (p *ioPlugin) Clone() core.IOPlugin {
	clone := *p
	clone.child = p.child.Clone()
	clone.seed = p.seed*0x9e3779b9 + 1
	clone.dice = newDice(clone.seed)
	return &clone
}
