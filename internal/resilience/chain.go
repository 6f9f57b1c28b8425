package resilience

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"time"

	"pressio/internal/core"
	"pressio/internal/trace"
)

// Chain is an ordered list of child compressors named by one comma-separated
// option: fallback's tiers and opt's candidates. Every child receives every
// option set on the owner, and a framed stream routes back to the child that
// produced it (Route).
type Chain []childComp

// String lists the children's names, comma-separated.
func (c Chain) String() string {
	names := make([]string, len(c))
	for i := range c {
		names[i] = c[i].Name
	}
	return strings.Join(names, ",")
}

// renamed returns unbuilt children named by csv that inherit the options
// saved so far. It builds a fresh slice: the old one may be shared with the
// plugin a staged copy was taken from.
func (c Chain) renamed(csv string) Chain {
	var proto childComp
	if len(c) > 0 {
		proto = c[0]
	}
	var next Chain
	for _, name := range strings.Split(csv, ",") {
		if name = strings.TrimSpace(name); name != "" {
			next = append(next, proto.Renamed(name))
		}
	}
	return next
}

// Clone returns an independent chain (see core.Child.Clone).
func (c Chain) Clone() Chain {
	clone := make(Chain, len(c))
	for i := range c {
		clone[i] = c[i].Clone()
	}
	return clone
}

// ChainRow declares the option naming a chain. Unlike a single-child wrapper
// it validates forwarded options only against children that are already
// built: a child that cannot be built or configured fails at call time, where
// its owner moves on to the next one.
func ChainRow[T any](key, doc string, field func(*T) *Chain) core.Row[T] {
	r := core.Opt(key, doc, core.Bounds{},
		func(p *T) (string, bool) { return field(p).String(), true },
		func(p *T, csv string) {
			if c := field(p); csv != c.String() {
				*c = c.renamed(csv)
			}
		})
	r.Check = func(o core.Option) error {
		if strings.Trim(o.Value().(string), ", \t") == "" {
			return errors.New("names no compressor")
		}
		return nil
	}
	r.Describe = func(p *T, o *core.Options) {
		c := *field(p)
		for i := range c {
			c[i].Describe(o)
		}
	}
	r.Stage = func(p *T, o *core.Options) error {
		c := field(p)
		*c = slices.Clone(*c)
		for i := range *c {
			if err := (*c)[i].Stage(o); err != nil {
				return err
			}
		}
		return nil
	}
	r.Commit = func(p *T, o *core.Options) error {
		c := *field(p)
		for i := range c {
			if err := c[i].Forward(o); err != nil {
				return err
			}
		}
		return nil
	}
	return r
}

// Route decodes the frame in b and decompresses its payload, under the
// watchdog deadline (0 = none), through the child that produced it, which it
// returns. A frame naming a producer outside the chain is corrupt.
func (c Chain) Route(b []byte, out *core.Data, deadline time.Duration) (*core.Compressor, error) {
	f, err := DecodeFrame(b)
	if err != nil {
		trace.CounterAdd(trace.CtrFrameCorrupt, 1)
		return nil, err
	}
	var getErrs []error
	for i := range c {
		comp, err := c[i].Get()
		if err != nil {
			if c[i].Name == f.Prefix {
				// The frame names this child; a failure to build it is a
				// configuration problem, not stream corruption.
				getErrs = append(getErrs, fmt.Errorf("%s: %w", c[i].Name, err))
			}
			continue
		}
		if comp.Prefix() != f.Prefix && c[i].Name != f.Prefix {
			continue
		}
		hintDT, hintDims := out.DType(), out.Dims()
		if hintDT == core.DTypeUnset || len(hintDims) == 0 {
			hintDT, hintDims = f.DType, f.Dims
		}
		target := core.NewEmpty(hintDT, hintDims...)
		if _, err := guarded(deadline, &c[i], (*core.Compressor).Decompress, core.NewBytes(f.Payload), target); err != nil {
			return nil, err
		}
		out.Become(target)
		return comp, nil
	}
	if len(getErrs) > 0 {
		return nil, fmt.Errorf("resilience: the frame producer %q failed to instantiate: %w",
			f.Prefix, errors.Join(getErrs...))
	}
	return nil, fmt.Errorf("resilience: %w: frame produced by %q which is not in the chain %q",
		core.ErrCorrupt, f.Prefix, c.String())
}

// WriteFrame frames stream, produced by the plugin prefix from in, into out.
func WriteFrame(out *core.Data, prefix string, in, stream *core.Data) error {
	framed, err := EncodeFrame(prefix, in.DType(), in.Dims(), stream.Bytes())
	if err != nil {
		return err
	}
	trace.CounterAdd(trace.CtrFrameWritten, 1)
	out.Become(core.NewBytes(framed))
	return nil
}
