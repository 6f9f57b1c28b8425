package faultinject

import (
	"fmt"
	"io"

	"pressio/internal/core"
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
		return &ioPlugin{child: core.Child[core.IOPlugin]{Name: "posix"}, rates: Rates{Seed: 1}, dice: newDice(1)}
	})
}

// ioPlugin wraps a child IO plugin with the same deterministic fault
// schedule the compressor injector uses, over the same Rates (whose panic and
// permanent rates stay 0): delays, transient errors, short reads and writes,
// and bit flips in the bytes read. It lets IO-level failure handling
// (retry-on-read, integrity validation of frames loaded from disk) be tested
// without real storage faults.
type ioPlugin struct {
	child core.Child[core.IOPlugin]

	rates                 Rates
	shortRead, shortWrite float64

	dice *dice
}

func (p *ioPlugin) Prefix() string { return "faultinject" }

var ioSchema = core.NewSchema(
	core.ChildRow(keyIOChild, "name of the IO plugin to sabotage; it receives every option set here",
		func(p *ioPlugin) *core.Child[core.IOPlugin] { return &p.child }),
	seedRow(keyIOSeed, func(p *ioPlugin) *int64 { return &p.rates.Seed }, func(p *ioPlugin) **dice { return &p.dice }),
	rate(keyIOErrorRate, "probability of a transient error per call", func(p *ioPlugin) *float64 { return &p.rates.Error }),
	rate(keyIODelayRate, "probability of sleeping faultinject_io:delay_ms before a call", func(p *ioPlugin) *float64 { return &p.rates.Delay }),
	core.Field(keyIODelayMS, "length of an injected delay", core.AtLeast(0),
		func(p *ioPlugin) *int64 { return &p.rates.DelayMS }),
	rate(keyIOBitflipRate, "probability of flipping one bit of the bytes read", func(p *ioPlugin) *float64 { return &p.rates.Bitflip }),
	rate(keyIOShortReadRate, "probability of returning a strict prefix of the bytes read", func(p *ioPlugin) *float64 { return &p.shortRead }),
	rate(keyIOShortWriteRate, "probability of persisting a strict prefix and reporting a short write", func(p *ioPlugin) *float64 { return &p.shortWrite }),
)

func (p *ioPlugin) Opts() core.Opts { return ioSchema.For(p) }

func (p *ioPlugin) Configuration() *core.Options {
	return core.StandardConfiguration(core.ThreadSafetySerialized, "experimental", Version, false)
}

func (p *ioPlugin) Read(hint *core.Data) (*core.Data, error) {
	child, err := p.child.Get()
	if err != nil {
		return nil, err
	}
	if err := p.dice.before(&p.rates, "read"); err != nil {
		return nil, err
	}
	d, err := child.Read(hint)
	if err != nil {
		return nil, err
	}
	if d.ByteLen() > 1 && p.dice.fires(p.shortRead, CtrShortReads) {
		// A short read delivers a strict prefix of the stream, as a torn
		// storage read or truncated transfer would. The prefix has no valid
		// shape, so it comes back as plain bytes; consumers (the frame
		// decoder, format parsers) must detect the truncation themselves.
		return core.NewBytes(append([]byte(nil), d.Bytes()[:p.dice.cut(int(d.ByteLen()))]...)), nil
	}
	if d.ByteLen() > 0 && p.dice.fires(p.rates.Bitflip, CtrBitflips) {
		buf := append([]byte(nil), d.Bytes()...)
		p.dice.flip(buf)
		return core.NewMove(d.DType(), buf, d.Dims()...)
	}
	return d, nil
}

func (p *ioPlugin) Write(d *core.Data) error {
	child, err := p.child.Get()
	if err != nil {
		return err
	}
	if err := p.dice.before(&p.rates, "write"); err != nil {
		return err
	}
	if d.ByteLen() > 1 && p.dice.fires(p.shortWrite, CtrShortWrites) {
		// A short write persists a strict prefix and reports the failure, as
		// an interrupted transfer would: only part of the payload reaches the
		// sink, and the caller gets a transient io.ErrShortWrite to retry on.
		// The torn artifact is what integrity frames must catch on read.
		cut := p.dice.cut(int(d.ByteLen()))
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
	clone.rates.Seed, clone.dice = p.dice.fork(p.rates.Seed)
	return &clone
}
