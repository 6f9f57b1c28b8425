package core

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
	"time"
)

// Bounds restricts the values a schema row accepts: a numeric interval or,
// for string options, a closed set of spellings. The zero Bounds accepts
// everything of the row's type.
type Bounds struct {
	Lo, Hi         float64  // interval ends; ±Inf leaves an end open-ended
	LoOpen, HiOpen bool     // the end itself is excluded
	OneOf          []string // accepted spellings of a string option
	interval       bool
}

// Closed accepts lo <= v <= hi.
func Closed(lo, hi float64) Bounds { return Bounds{Lo: lo, Hi: hi, interval: true} }

// Open accepts lo < v < hi.
func Open(lo, hi float64) Bounds {
	return Bounds{Lo: lo, Hi: hi, LoOpen: true, HiOpen: true, interval: true}
}

// LeftOpen accepts lo < v <= hi.
func LeftOpen(lo, hi float64) Bounds { return Bounds{Lo: lo, Hi: hi, LoOpen: true, interval: true} }

// AtLeast accepts every finite v >= lo.
func AtLeast(lo float64) Bounds { return Bounds{Lo: lo, Hi: math.Inf(1), interval: true} }

// Above accepts every finite v > lo.
func Above(lo float64) Bounds {
	return Bounds{Lo: lo, Hi: math.Inf(1), LoOpen: true, interval: true}
}

// OneOf accepts exactly the listed strings.
func OneOf(names ...string) Bounds { return Bounds{OneOf: names} }

// String renders the bounds for generated documentation and error messages
// ("" when unbounded).
func (b Bounds) String() string {
	num := func(v float64) string { return strconv.FormatFloat(v, 'f', -1, 64) }
	switch {
	case len(b.OneOf) > 0:
		return "one of " + strings.Join(b.OneOf, "|")
	case !b.interval:
		return ""
	case math.IsInf(b.Hi, 1):
		if b.LoOpen {
			return "> " + num(b.Lo)
		}
		return ">= " + num(b.Lo)
	}
	l, r := "[", "]"
	if b.LoOpen {
		l = "("
	}
	if b.HiOpen {
		r = ")"
	}
	return l + num(b.Lo) + ", " + num(b.Hi) + r
}

// check validates an option already cast to the row's type. Bounded numeric
// rows also reject NaN and ±Inf: an open end means "any finite value".
func (b Bounds) check(v Option) error {
	ok := true
	switch {
	case len(b.OneOf) > 0:
		s, _ := v.val.(string)
		ok = slices.Contains(b.OneOf, s)
	case b.interval && v.typ.Numeric():
		f := v.asFloat()
		ok = !math.IsNaN(f) && !math.IsInf(f, 0) && f >= b.Lo && f <= b.Hi &&
			!(b.LoOpen && f == b.Lo) && !(b.HiOpen && f == b.Hi)
	}
	if !ok {
		return fmt.Errorf("got %v, want %s", v, b)
	}
	return nil
}

// OptionSpec is the printable description of one schema row — what
// `pressio -mode options`, docs/PLUGINS.md and the schema well-formedness
// test read. Defaults are not repeated here: a fresh instance's Options()
// reports them.
type OptionSpec struct {
	Key      string
	Type     OptionType
	Doc      string
	Bounds   Bounds
	ReadOnly bool // reported by Options() but never settable
}

// Row declares one option of a plugin whose state lives in a T: the spec plus
// the accessors Opts derives Options, Set and Check from. Build
// value rows with Opt, Field and the other constructors; the hook fields are
// for rows that own more than a value, such as a child compressor.
//
// Every func in a Row is created once, when the package-level table is
// built, and never captures an instance.
type Row[T any] struct {
	OptionSpec
	// Get reports the current value, or TypedOption(Type) when unset.
	Get func(*T) Option
	// Set stores a value already cast to Type and checked against Bounds and
	// Check. It runs on a staged copy of the plugin, so it must replace
	// reference-typed fields rather than mutate what they point to, and must
	// not touch anything outside the plugin. nil makes the row read-only.
	Set func(*T, Option)
	// Check is extra validation beyond Bounds.
	Check func(Option) error
	// Effect runs on the real plugin after a Set that carried this key
	// succeeded (never for Check): the place for side effects
	// outside the plugin.
	Effect func(*T)

	// Describe adds entries beyond Key to Options().
	Describe func(*T, *Options)
	// Stage validates and stages whatever else the row owns against the
	// full option set, on the staged copy.
	Stage func(*T, *Options) error
	// Commit runs on the real plugin after every row staged cleanly.
	Commit func(*T, *Options) error
}

// Value lists the Go types a typed row constructor can carry; each maps to
// the OptionType NewOption assigns it.
type Value interface {
	int8 | int16 | int32 | int64 | uint8 | uint16 | uint32 | uint64 |
		float32 | float64 | string | []string | *Data
}

// Opt declares a row from a typed getter and setter. get's second result is
// false while the option is unset (Options() then reports a typed
// placeholder); set receives the value already cast and validated.
func Opt[T any, V Value](key, doc string, b Bounds, get func(*T) (V, bool), set func(*T, V)) Row[T] {
	var zero V
	typ := NewOption(zero).Type()
	return Row[T]{
		OptionSpec: OptionSpec{Key: key, Type: typ, Doc: doc, Bounds: b},
		Get: func(p *T) Option {
			if v, ok := get(p); ok {
				return NewOption(v)
			}
			return TypedOption(typ)
		},
		Set: func(p *T, o Option) { set(p, o.val.(V)) },
	}
}

// Field declares a row stored directly in a struct field of the option's own
// Go type.
func Field[T any, V Value](key, doc string, b Bounds, field func(*T) *V) Row[T] {
	return Opt(key, doc, b,
		func(p *T) (V, bool) { return *field(p), true },
		func(p *T, v V) { *field(p) = v })
}

// Number lists the field types NumAs converts to and from.
type Number interface {
	~int | ~int32 | ~int64 | ~uint | ~uint32 | ~uint64 | ~float64
}

// NumAs declares a numeric row whose field has another Go type than the
// advertised option type V, e.g. NumAs[uint64] over an int field.
func NumAs[V interface {
	Value
	Number
}, T any, F Number](key, doc string, b Bounds, field func(*T) *F) Row[T] {
	return Opt(key, doc, b,
		func(p *T) (V, bool) { return V(*field(p)), true },
		func(p *T, v V) { *field(p) = F(v) })
}

// Millis declares an int64 millisecond row over a time.Duration field.
func Millis[T any](key, doc string, b Bounds, field func(*T) *time.Duration) Row[T] {
	return Opt(key, doc, b,
		func(p *T) (int64, bool) { return int64(*field(p) / time.Millisecond), true },
		func(p *T, v int64) { *field(p) = time.Duration(v) * time.Millisecond })
}

// Flag declares the int32 0/1 spelling options use for a bool field.
func Flag[T any](key, doc string, field func(*T) *bool) Row[T] {
	return Opt(key, doc, Bounds{},
		func(p *T) (int32, bool) {
			if *field(p) {
				return 1, true
			}
			return 0, true
		},
		func(p *T, v int32) { *field(p) = v != 0 })
}

// Parsed declares a string row over a field of an enumerated type: Options()
// reports the value's String(), and a string parse rejects is invalid.
func Parsed[T any, E fmt.Stringer](key, doc string, parse func(string) (E, error), field func(*T) *E) Row[T] {
	r := Opt(key, doc, Bounds{},
		func(p *T) (string, bool) { return (*field(p)).String(), true },
		func(p *T, s string) { *field(p), _ = parse(s) }) // Check already vouched for s
	r.Check = func(o Option) error {
		_, err := parse(o.val.(string))
		return err
	}
	return r
}

// Uint64s declares a data row carrying a 1-D uint64 buffer (dims, axes, box
// corners) over a []uint64 field.
func Uint64s[T any](key, doc string, field func(*T) *[]uint64) Row[T] {
	r := Opt(key, doc, Bounds{},
		func(p *T) (*Data, bool) {
			v := *field(p)
			d := NewData(DTypeUint64, uint64(len(v)))
			copy(d.Uint64s(), v)
			return d, true
		},
		func(p *T, d *Data) { *field(p) = append([]uint64(nil), d.Uint64s()...) })
	r.Check = func(o Option) error {
		if d := o.val.(*Data); d == nil || d.DType() != DTypeUint64 {
			return errors.New("must be uint64 data")
		}
		return nil
	}
	return r
}

// Report declares a read-only row: Options() shows it, Set ignores it.
func Report[T any, V Value](key, doc string, get func(*T) V) Row[T] {
	r := Opt(key, doc, Bounds{}, func(p *T) (V, bool) { return get(p), true }, nil)
	r.Set, r.ReadOnly = nil, true
	return r
}

// OnSet runs hook on the staged plugin right after the row stores a value —
// the place for mode interplay ("setting a rate selects fixed-rate mode").
// Rows apply in table order, so a later row overrides an earlier hook.
func (r Row[T]) OnSet(hook func(*T)) Row[T] {
	store := r.Set
	r.Set = func(p *T, o Option) { store(p, o); hook(p) }
	return r
}

// UnsetWhen makes Options() report a typed placeholder while unset(p) holds.
func (r Row[T]) UnsetWhen(unset func(*T) bool) Row[T] {
	get, typ := r.Get, r.Type
	r.Get = func(p *T) Option {
		if unset(p) {
			return TypedOption(typ)
		}
		return get(p)
	}
	return r
}

// WriteOnly makes Options() always report a typed placeholder (masks, box
// corners: settable, discoverable, not echoed back).
func (r Row[T]) WriteOnly() Row[T] { return r.UnsetWhen(func(*T) bool { return true }) }

// WithEffect sets the row's Effect.
func (r Row[T]) WithEffect(effect func(*T)) Row[T] {
	r.Effect = effect
	return r
}

// Schema is the static option table of one plugin type: the whole option
// surface of the plugin, which binds it to an instance with For.
type Schema[T any] struct {
	rows     []Row[T]
	specList []OptionSpec
	validate func(*T) error
}

// NewSchema builds a schema from rows, applied in the order given. It panics
// on a duplicate key so a bad table fails at init, not at first use.
func NewSchema[T any](rows ...Row[T]) *Schema[T] {
	if len(rows) > 64 {
		panic("core: schema exceeds 64 rows")
	}
	s := &Schema[T]{rows: rows}
	seen := map[string]bool{}
	for _, r := range rows {
		if seen[r.Key] {
			panic(fmt.Sprintf("core: duplicate schema row %q", r.Key))
		}
		seen[r.Key] = true
		s.specList = append(s.specList, r.OptionSpec)
	}
	return s
}

// Validate installs a cross-field check that runs on the staged plugin after
// every row applied.
func (s *Schema[T]) Validate(check func(*T) error) *Schema[T] {
	s.validate = check
	return s
}

// For binds the table to p: the value a plugin's Opts method returns.
func (s *Schema[T]) For(p *T) Opts { return Opts{t: s, p: p} }

func (s *Schema[T]) specs() []OptionSpec { return s.specList }

// options reports every row's current value or typed placeholder.
func (s *Schema[T]) options(inst any) *Options {
	p := inst.(*T)
	o := &Options{m: make(map[string]Option, len(s.rows))}
	for i := range s.rows {
		r := &s.rows[i]
		o.m[r.Key] = r.Get(p)
		if r.Describe != nil {
			r.Describe(p, o)
		}
	}
	return o
}

// stage applies o to a copy of *p: every present key is cast to its row's
// type, validated, and stored; then the rows that own more than a value stage
// the rest, and the cross-field check runs. A plugin's own keys are thus
// judged before anything is asked of a child. present has bit i set when row
// i's key carried a value.
func (s *Schema[T]) stage(p *T, o *Options) (staged *T, present uint64, err error) {
	copied := *p
	staged = &copied
	for i := range s.rows {
		r := &s.rows[i]
		if opt, ok := o.m[r.Key]; ok && opt.hasVal && r.Set != nil {
			v, err := r.cast(opt)
			if err != nil {
				return nil, 0, err
			}
			r.Set(staged, v)
			present |= 1 << i
		}
	}
	for i := range s.rows {
		if r := &s.rows[i]; r.Stage != nil {
			if err := r.Stage(staged, o); err != nil {
				return nil, 0, err
			}
		}
	}
	if s.validate != nil {
		if err := s.validate(staged); err != nil {
			return nil, 0, err
		}
	}
	return staged, present, nil
}

// cast converts a provided option to the row's type and validates it.
func (r *Row[T]) cast(opt Option) (Option, error) {
	v, ok := opt.Cast(r.Type, CastExplicit)
	if !ok {
		return Option{}, fmt.Errorf("%w: %s is %s, not convertible to %s", ErrInvalidOption, r.Key, opt.Type(), r.Type)
	}
	err := r.Bounds.check(v)
	if err == nil && r.Check != nil {
		err = r.Check(v)
	}
	if err != nil {
		return Option{}, fmt.Errorf("%w: %s: %w", ErrInvalidOption, r.Key, err)
	}
	return v, nil
}

// set validates o against the instance and, if apply, stores it: a failed
// set changes nothing.
func (s *Schema[T]) set(inst any, o *Options, apply bool) error {
	p := inst.(*T)
	staged, present, err := s.stage(p, o)
	if err != nil || !apply {
		return err
	}
	*p = *staged
	for i := range s.rows {
		r := &s.rows[i]
		if r.Commit != nil {
			if err := r.Commit(p, o); err != nil {
				return err
			}
		}
		if r.Effect != nil && present&(1<<i) != 0 {
			r.Effect(p)
		}
	}
	return nil
}

// table is an option table with its instance type erased: a Schema, or a
// MetricsGroup fanning out to its members.
type table interface {
	options(p any) *Options
	set(p any, o *Options, apply bool) error
	specs() []OptionSpec
}

// Opts is a plugin's option table bound to one instance — the plugin's whole
// option surface. The zero Opts is the surface of a plugin without options.
type Opts struct {
	t table
	p any
}

// NoOptions is the surface of plugin p, which declares no options: it still
// owns the keys in its prefix, so Set rejects every one of them.
func NoOptions(p interface{ Prefix() string }) Opts { return Opts{p: p} }

// Options returns the current option values, including typed placeholders
// for unset options, enabling introspection.
func (b Opts) Options() *Options {
	if b.t == nil {
		return NewOptions()
	}
	return b.t.options(b.p)
}

// Set validates o exactly as Check does and only then applies it, so a failed
// Set changes nothing. Keys of other plugins are ignored, so one flat option
// set can configure a whole composition.
func (b Opts) Set(o *Options) error { return b.set(o, true) }

// Check validates o without applying it.
func (b Opts) Check(o *Options) error { return b.set(o, false) }

// Specs describes every option: key, type, doc and bounds, in table order.
func (b Opts) Specs() []OptionSpec {
	if b.t == nil {
		return nil
	}
	return b.t.specs()
}

func (b Opts) set(o *Options, apply bool) error {
	if o == nil {
		return nil
	}
	if err := b.owned(o); err != nil || b.t == nil {
		return err
	}
	return b.t.set(b.p, o, apply)
}

// Undeclared reports whether key lies in the plugin's own prefix while no row
// declares it: a misspelt option, which Set and Check refuse rather than
// ignore like another plugin's key.
func (b Opts) Undeclared(key string) bool {
	p, ok := b.p.(interface{ Prefix() string })
	return ok && strings.HasPrefix(key, p.Prefix()+":") &&
		!slices.ContainsFunc(b.Specs(), func(s OptionSpec) bool { return s.Key == key })
}

// owned refuses o if it carries an undeclared key, naming the least.
func (b Opts) owned(o *Options) error {
	bad := ""
	for k := range o.m {
		if b.Undeclared(k) && (bad == "" || k < bad) {
			bad = k
		}
	}
	if prefix, _, _ := strings.Cut(bad, ":"); bad != "" {
		return fmt.Errorf("%w: %s is not an option of %s", ErrInvalidOption, bad, prefix)
	}
	return nil
}
