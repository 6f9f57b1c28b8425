package core

import (
	"fmt"
	"maps"
	"math"
	"slices"
	"strconv"
	"strings"
)

// OptionType enumerates the value kinds an Option can hold, mirroring the
// paper's §IV-C option abstraction: signed and unsigned integers of 8, 16,
// 32 and 64 bits, single and double precision floats, string, string list,
// a full Data buffer (e.g. a mask), an opaque user pointer (e.g. a handle to
// a parallel resource), and unset.
type OptionType int

// Option value kinds.
const (
	OptUnset OptionType = iota
	OptInt8
	OptInt16
	OptInt32
	OptInt64
	OptUint8
	OptUint16
	OptUint32
	OptUint64
	OptFloat
	OptDouble
	OptString
	OptStrings
	OptData
	OptUserPtr
)

var optionTypeNames = map[OptionType]string{
	OptUnset:   "unset",
	OptInt8:    "int8",
	OptInt16:   "int16",
	OptInt32:   "int32",
	OptInt64:   "int64",
	OptUint8:   "uint8",
	OptUint16:  "uint16",
	OptUint32:  "uint32",
	OptUint64:  "uint64",
	OptFloat:   "float",
	OptDouble:  "double",
	OptString:  "string",
	OptStrings: "strings",
	OptData:    "data",
	OptUserPtr: "userptr",
}

// String returns the canonical name of the option type.
func (t OptionType) String() string {
	if s, ok := optionTypeNames[t]; ok {
		return s
	}
	return fmt.Sprintf("optiontype(%d)", int(t))
}

// Numeric reports whether the option kind holds a scalar number.
func (t OptionType) Numeric() bool { return t >= OptInt8 && t <= OptDouble }

// CastSafety controls which conversions Option.Cast permits, mirroring
// pressio_conversion_safety.
type CastSafety int

const (
	// CastImplicit permits only conversions that cannot lose information
	// for the stored value (same type, widening within the value range).
	CastImplicit CastSafety = iota
	// CastExplicit additionally permits narrowing numeric conversions when
	// the stored value fits the destination, and float->int when exact.
	CastExplicit
	// CastSpecial additionally permits string<->number formatting/parsing
	// and lossy float conversions.
	CastSpecial
)

// Option is a single typed configuration value. The zero Option is unset.
// An Option can also carry a type but no value ("has type, no value") which
// introspection uses to advertise an option's expected type.
type Option struct {
	typ    OptionType
	hasVal bool
	val    any
}

// NewOption creates an Option holding v. Supported dynamic types: all Go
// integer and float scalar types, string, []string, *Data, and arbitrary
// pointers via OptionUserPtr.
func NewOption(v any) Option {
	switch x := v.(type) {
	case int8:
		return Option{OptInt8, true, x}
	case int16:
		return Option{OptInt16, true, x}
	case int32:
		return Option{OptInt32, true, x}
	case int64:
		return Option{OptInt64, true, x}
	case int:
		return Option{OptInt64, true, int64(x)}
	case uint8:
		return Option{OptUint8, true, x}
	case uint16:
		return Option{OptUint16, true, x}
	case uint32:
		return Option{OptUint32, true, x}
	case uint64:
		return Option{OptUint64, true, x}
	case uint:
		return Option{OptUint64, true, uint64(x)}
	case float32:
		return Option{OptFloat, true, x}
	case float64:
		return Option{OptDouble, true, x}
	case string:
		return Option{OptString, true, x}
	case []string:
		return Option{OptStrings, true, append([]string(nil), x...)}
	case *Data:
		return Option{OptData, true, x}
	default:
		return Option{OptUserPtr, true, v}
	}
}

// OptionUserPtr wraps an opaque value (the analogue of passing MPI_Comm or
// a sycl::queue through the C API).
func OptionUserPtr(v any) Option { return Option{OptUserPtr, true, v} }

// TypedOption creates an Option that has a type but no value; plugins use it
// in Options() results to advertise expected types for introspection.
func TypedOption(t OptionType) Option { return Option{typ: t} }

// Type returns the option's kind.
func (o Option) Type() OptionType { return o.typ }

// HasValue reports whether the option holds a value (not just a type).
func (o Option) HasValue() bool { return o.hasVal }

// Value returns the raw stored value (nil when no value is set).
func (o Option) Value() any {
	if !o.hasVal {
		return nil
	}
	return o.val
}

// asFloat returns the numeric value as float64. Only valid for numeric
// kinds with a value.
func (o Option) asFloat() float64 {
	switch x := o.val.(type) {
	case int8:
		return float64(x)
	case int16:
		return float64(x)
	case int32:
		return float64(x)
	case int64:
		return float64(x)
	case uint8:
		return float64(x)
	case uint16:
		return float64(x)
	case uint32:
		return float64(x)
	case uint64:
		return float64(x)
	case float32:
		return float64(x)
	case float64:
		return x
	}
	panic("core: asFloat on non-numeric option")
}

// intExact reports the value as int64 plus whether it is exactly
// representable (uint64 overflow and fractional floats are inexact).
func (o Option) intExact() (int64, bool) {
	switch x := o.val.(type) {
	case int8:
		return int64(x), true
	case int16:
		return int64(x), true
	case int32:
		return int64(x), true
	case int64:
		return x, true
	case uint8:
		return int64(x), true
	case uint16:
		return int64(x), true
	case uint32:
		return int64(x), true
	case uint64:
		if x > math.MaxInt64 {
			return 0, false
		}
		return int64(x), true
	case float32:
		f := float64(x)
		if f != math.Trunc(f) || f < math.MinInt64 || f > math.MaxInt64 {
			return 0, false
		}
		return int64(f), true
	case float64:
		if x != math.Trunc(x) || x < math.MinInt64 || x > math.MaxInt64 {
			return 0, false
		}
		return int64(x), true
	}
	return 0, false
}

var intBits = map[OptionType]struct {
	bits   int
	signed bool
}{
	OptInt8:   {8, true},
	OptInt16:  {16, true},
	OptInt32:  {32, true},
	OptInt64:  {64, true},
	OptUint8:  {8, false},
	OptUint16: {16, false},
	OptUint32: {32, false},
	OptUint64: {64, false},
}

// Cast converts the option to the destination kind under the given safety
// level. It reports false when the conversion is not allowed or would not
// preserve the stored value within the safety contract.
func (o Option) Cast(to OptionType, safety CastSafety) (Option, bool) {
	if !o.hasVal {
		return Option{}, false
	}
	if o.typ == to {
		return o, true
	}
	switch {
	case o.typ.Numeric() && to.Numeric():
		return o.castNumeric(to, safety)
	case o.typ.Numeric() && to == OptString && safety >= CastSpecial:
		return NewOption(o.formatNumeric()), true
	case o.typ == OptString && to.Numeric() && safety >= CastSpecial:
		return parseNumericOption(o.val.(string), to)
	case o.typ == OptString && to == OptStrings && safety >= CastImplicit:
		return NewOption([]string{o.val.(string)}), true
	case o.typ == OptStrings && to == OptString && safety >= CastExplicit:
		xs := o.val.([]string)
		if len(xs) == 1 {
			return NewOption(xs[0]), true
		}
		return Option{}, false
	default:
		return Option{}, false
	}
}

func (o Option) castNumeric(to OptionType, safety CastSafety) (Option, bool) {
	// Float destinations.
	switch to {
	case OptDouble:
		f := o.asFloat()
		if o.typ == OptInt64 || o.typ == OptUint64 {
			// Only implicit when exactly representable.
			if iv, ok := o.intExact(); !ok || float64(iv) != f || int64(f) != iv {
				if safety < CastExplicit {
					return Option{}, false
				}
			}
		}
		return NewOption(f), true
	case OptFloat:
		f := o.asFloat()
		if float64(float32(f)) != f && safety < CastSpecial {
			return Option{}, false
		}
		return NewOption(float32(f)), true
	}
	// Integer destinations. intExact is false for uint64 values above
	// MaxInt64, which only fit the (same-type) uint64 destination — and
	// that case was already short-circuited by the o.typ == to check.
	spec := intBits[to]
	iv, exact := o.intExact()
	if !exact {
		return Option{}, false
	}
	if o.typ == OptFloat || o.typ == OptDouble {
		if safety < CastExplicit {
			return Option{}, false
		}
	}
	if !fitsInt(float64(iv), spec.bits, spec.signed) {
		return Option{}, false
	}
	if safety < CastExplicit {
		// Implicit: destination must be at least as wide with compatible
		// signedness, or the value must be representable and widening.
		src, ok := intBits[o.typ]
		if !ok || spec.bits < src.bits || (src.signed && !spec.signed) {
			return Option{}, false
		}
		if !src.signed && spec.signed && spec.bits == src.bits {
			return Option{}, false
		}
	}
	return makeIntOption(to, iv), true
}

func makeIntOption(t OptionType, v int64) Option {
	switch t {
	case OptInt8:
		return NewOption(int8(v))
	case OptInt16:
		return NewOption(int16(v))
	case OptInt32:
		return NewOption(int32(v))
	case OptInt64:
		return NewOption(v)
	case OptUint8:
		return NewOption(uint8(v))
	case OptUint16:
		return NewOption(uint16(v))
	case OptUint32:
		return NewOption(uint32(v))
	case OptUint64:
		return NewOption(uint64(v))
	}
	panic("core: makeIntOption on non-integer type")
}

func (o Option) formatNumeric() string {
	switch x := o.val.(type) {
	case float32:
		return strconv.FormatFloat(float64(x), 'g', -1, 32)
	case float64:
		return strconv.FormatFloat(x, 'g', -1, 64)
	default:
		iv, _ := o.intExact()
		if u, ok := o.val.(uint64); ok {
			return strconv.FormatUint(u, 10)
		}
		return strconv.FormatInt(iv, 10)
	}
}

func parseNumericOption(s string, to OptionType) (Option, bool) {
	s = strings.TrimSpace(s)
	switch to {
	case OptFloat:
		f, err := strconv.ParseFloat(s, 32)
		if err != nil {
			return Option{}, false
		}
		return NewOption(float32(f)), true
	case OptDouble:
		f, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return Option{}, false
		}
		return NewOption(f), true
	case OptUint64:
		u, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			return Option{}, false
		}
		return NewOption(u), true
	default:
		spec, ok := intBits[to]
		if !ok {
			return Option{}, false
		}
		if spec.signed {
			v, err := strconv.ParseInt(s, 10, spec.bits)
			if err != nil {
				return Option{}, false
			}
			return makeIntOption(to, v), true
		}
		v, err := strconv.ParseUint(s, 10, spec.bits)
		if err != nil {
			return Option{}, false
		}
		return makeIntOption(to, int64(v)), true
	}
}

// String renders the option for diagnostics.
func (o Option) String() string {
	if !o.hasVal {
		return fmt.Sprintf("<%s>", o.typ)
	}
	switch o.typ {
	case OptString:
		return fmt.Sprintf("%q", o.val)
	case OptData:
		return o.val.(*Data).String()
	case OptUserPtr:
		return fmt.Sprintf("userptr(%T)", o.val)
	default:
		return fmt.Sprint(o.val)
	}
}

// Options is an ordered-key map from option names (e.g. "sz:abs_err_bound",
// "pressio:abs") to typed Option values. It is the introspectable
// configuration store of the framework.
type Options struct {
	m map[string]Option
}

// NewOptions returns an empty option set.
func NewOptions() *Options { return &Options{m: make(map[string]Option)} }

// Set stores an option under key.
func (o *Options) Set(key string, opt Option) *Options {
	o.m[key] = opt
	return o
}

// SetValue wraps v with NewOption and stores it.
func (o *Options) SetValue(key string, v any) *Options { return o.Set(key, NewOption(v)) }

// SetType stores a typed-but-valueless option (introspection placeholder).
//
//pressio:api pressio_options_set_type
func (o *Options) SetType(key string, t OptionType) *Options { return o.Set(key, TypedOption(t)) }

// Get retrieves the option stored under key.
func (o *Options) Get(key string) (Option, bool) {
	opt, ok := o.m[key]
	return opt, ok
}

// Has reports whether key exists and holds a value.
func (o *Options) Has(key string) bool {
	opt, ok := o.m[key]
	return ok && opt.HasValue()
}

// Delete removes key.
func (o *Options) Delete(key string) { delete(o.m, key) }

// Len returns the number of stored options.
func (o *Options) Len() int { return len(o.m) }

// Keys returns the option names in sorted order.
func (o *Options) Keys() []string {
	return slices.Sorted(maps.Keys(o.m))
}

// getAs retrieves key cast to t under safety; T is t's Go type.
func getAs[T any](o *Options, key string, t OptionType, safety CastSafety) (T, error) {
	var zero T
	opt, ok := o.m[key]
	if !ok || !opt.HasValue() {
		return zero, fmt.Errorf("%w: %s", ErrMissingOption, key)
	}
	c, ok := opt.Cast(t, safety)
	if !ok {
		return zero, fmt.Errorf("%w: %s is %s, not convertible to %s", ErrInvalidOption, key, opt.Type(), t)
	}
	return c.Value().(T), nil
}

// GetInt64 retrieves key cast (explicitly) to int64.
func (o *Options) GetInt64(key string) (int64, error) {
	return getAs[int64](o, key, OptInt64, CastExplicit)
}

// GetUint64 retrieves key cast (explicitly) to uint64.
func (o *Options) GetUint64(key string) (uint64, error) {
	return getAs[uint64](o, key, OptUint64, CastExplicit)
}

// GetInt32 retrieves key cast (explicitly) to int32.
func (o *Options) GetInt32(key string) (int32, error) {
	return getAs[int32](o, key, OptInt32, CastExplicit)
}

// GetFloat64 retrieves key cast (explicitly) to float64.
func (o *Options) GetFloat64(key string) (float64, error) {
	return getAs[float64](o, key, OptDouble, CastExplicit)
}

// GetString retrieves key as a string (no numeric formatting).
func (o *Options) GetString(key string) (string, error) {
	opt, ok := o.m[key]
	if !ok || !opt.HasValue() {
		return "", fmt.Errorf("%w: %s", ErrMissingOption, key)
	}
	if opt.Type() != OptString {
		return "", fmt.Errorf("%w: %s is %s, not string", ErrInvalidOption, key, opt.Type())
	}
	return opt.Value().(string), nil
}

// GetStrings retrieves key as a string list.
func (o *Options) GetStrings(key string) ([]string, error) {
	return getAs[[]string](o, key, OptStrings, CastImplicit)
}

// GetData retrieves key as a Data buffer.
func (o *Options) GetData(key string) (*Data, error) {
	opt, ok := o.m[key]
	if !ok || !opt.HasValue() {
		return nil, fmt.Errorf("%w: %s", ErrMissingOption, key)
	}
	if opt.Type() != OptData {
		return nil, fmt.Errorf("%w: %s is %s, not data", ErrInvalidOption, key, opt.Type())
	}
	return opt.Value().(*Data), nil
}

// GetUserPtr retrieves key as an opaque value.
func (o *Options) GetUserPtr(key string) (any, error) {
	opt, ok := o.m[key]
	if !ok || !opt.HasValue() {
		return nil, fmt.Errorf("%w: %s", ErrMissingOption, key)
	}
	if opt.Type() != OptUserPtr {
		return nil, fmt.Errorf("%w: %s is %s, not userptr", ErrInvalidOption, key, opt.Type())
	}
	return opt.Value(), nil
}

// Merge copies every valued entry of src into o, overwriting existing keys.
func (o *Options) Merge(src *Options) *Options {
	if src == nil {
		return o
	}
	for k, v := range src.m {
		o.m[k] = v
	}
	return o
}

// merged returns a fresh set holding o's entries overlaid with src's; o may
// be nil and neither input is modified.
func (o *Options) merged(src *Options) *Options {
	if o == nil {
		return src.Clone()
	}
	return o.Clone().Merge(src)
}

// Clone returns a copy. Option values are shared (they are immutable scalars
// except Data/UserPtr which keep reference semantics like the C library).
func (o *Options) Clone() *Options {
	c := NewOptions()
	for k, v := range o.m {
		c.m[k] = v
	}
	return c
}

// String renders all options sorted by key.
func (o *Options) String() string {
	var b strings.Builder
	for i, k := range o.Keys() {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s=%s", k, o.m[k])
	}
	return "{" + b.String() + "}"
}
