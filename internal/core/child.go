package core

import (
	"errors"
	"fmt"
)

// childPlugin is what Child needs of the plugin kind it wraps; *Compressor,
// Metric and IOPlugin all satisfy it.
type childPlugin[P any] interface {
	comparable
	Opts() Opts
	Clone() P
}

// Child is the one "named child plugin" helper every wrapper uses: the child
// is named by an option, built lazily from the registry of its kind, and
// receives every option set on the parent (replayed from the saved set when
// it is built later), so one flat Options value configures a whole
// composition.
type Child[P childPlugin[P]] struct {
	// Name is the registered name of the child.
	Name string

	inst  P        // the zero P until built
	saved *Options // never mutated once published: clones share it
}

// newPlugin builds the named plugin from the registry that holds P's kind.
func newPlugin[P any](name string) (p P, err error) {
	switch slot := any(&p).(type) {
	case **Compressor:
		*slot, err = NewCompressor(name)
	case *Metric:
		*slot, err = NewMetric(name)
	case *IOPlugin:
		*slot, err = NewIO(name)
	default:
		err = fmt.Errorf("%w: no registry holds %T", ErrUnknownPlugin, p)
	}
	return p, err
}

// Get returns the child, building it from Name and the saved options on
// first use.
func (c *Child[P]) Get() (P, error) {
	if inst, ok := c.Live(); ok {
		return inst, nil
	}
	inst, err := newPlugin[P](c.Name)
	if err == nil && c.saved != nil {
		err = inst.Opts().Set(c.saved)
	}
	if err != nil {
		var none P
		return none, err
	}
	c.inst = inst
	return inst, nil
}

// Live returns the child if it has been built.
func (c *Child[P]) Live() (P, bool) {
	var none P
	return c.inst, c.inst != none
}

// Drop discards the built instance; the next Get builds a fresh one.
func (c *Child[P]) Drop() {
	var none P
	c.inst = none
}

// Renamed returns an unbuilt child of another name with the same saved
// options.
func (c Child[P]) Renamed(name string) Child[P] {
	return Child[P]{Name: name, saved: c.saved}
}

// Clone returns an independent child: a built instance is cloned, the saved
// options are shared.
func (c Child[P]) Clone() Child[P] {
	if inst, ok := c.Live(); ok {
		c.inst = inst.Clone()
	}
	return c
}

// Stage asks a built child whether it accepts o and records o for replay,
// without changing the child. An unbuilt child is not consulted.
func (c *Child[P]) Stage(o *Options) error {
	if inst, ok := c.Live(); ok {
		if err := inst.Opts().Check(o); err != nil {
			return err
		}
	}
	c.saved = c.saved.merged(o)
	return nil
}

// Forward applies o to a built child.
func (c *Child[P]) Forward(o *Options) error {
	if inst, ok := c.Live(); ok {
		return inst.Opts().Set(o)
	}
	return nil
}

// Describe merges a built child's options into o.
func (c *Child[P]) Describe(o *Options) {
	if inst, ok := c.Live(); ok {
		o.Merge(inst.Opts().Options())
	}
}

// ChildRow declares the string option naming a wrapper's child, and with it
// the forwarding contract: Check and Set run the named child's Check — on a
// throwaway instance while the child is still unbuilt — and nothing the child
// rejects is saved or forwarded. A name that is not registered is not an
// option error: it is stored and resolved at first use.
func ChildRow[T any, P childPlugin[P]](key, doc string, field func(*T) *Child[P]) Row[T] {
	return childRow(key, doc, field, false)
}

// EagerChildRow is ChildRow for a child that is built as soon as it is named:
// Options() always lists its options, and an unregistered name is rejected at
// set time.
func EagerChildRow[T any, P childPlugin[P]](key, doc string, field func(*T) *Child[P]) Row[T] {
	return childRow(key, doc, field, true)
}

func childRow[T any, P childPlugin[P]](key, doc string, field func(*T) *Child[P], eager bool) Row[T] {
	r := Opt(key, doc, Bounds{},
		func(p *T) (string, bool) { return field(p).Name, true },
		func(p *T, name string) {
			if c := field(p); name != c.Name {
				*c = c.Renamed(name)
			}
		})
	r.Describe = func(p *T, o *Options) {
		c := field(p)
		if eager {
			_, _ = c.Get() // an unbuildable child simply lists nothing
		}
		c.Describe(o)
	}
	r.Stage = func(p *T, o *Options) error {
		c := field(p)
		judge := c
		if _, built := c.Live(); !built && !eager {
			probe := *c
			judge = &probe
		}
		_, err := judge.Get()
		if err == nil || (!eager && errors.Is(err, ErrUnknownPlugin)) {
			if err = judge.Stage(o); err == nil {
				c.saved = judge.saved
				return nil
			}
		}
		return fmt.Errorf("%s: %w", key, err)
	}
	r.Commit = func(p *T, o *Options) error { return field(p).Forward(o) }
	return r
}
