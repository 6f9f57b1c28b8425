package core_test

import (
	"errors"
	"math"
	"regexp"
	"strings"
	"testing"

	"pressio/internal/core"
)

// genericKeys are the cross-plugin "pressio:*" / "io:*" keys core declares.
var genericKeys = map[string]bool{
	core.KeyAbs: true, core.KeyRel: true, core.KeyLossless: true,
	core.KeyNThreads: true, core.KeyIOPath: true,
}

// namespaceExceptions lists the plugins whose keys predate the
// "<registered name>:" convention; renaming them would break users.
var namespaceExceptions = map[string]string{
	"io/h5lite":      "h5",
	"io/faultinject": "faultinject_io", // "faultinject:" belongs to the compressor
}

// TestSchemaWellFormed walks the registry and holds every plugin's option
// table to the contract the optionkeys/optiontypes analyzers used to police
// from source: keys spelled in the plugin's namespace (or a core.Key*
// constant), no duplicates, every row documented, the declared type equal to
// the type Options() reports, no row Options() omits (a dead option) and no
// undeclared key, every default acceptable to its own validator, and
// SetOptions(Options()) a no-op.
func TestSchemaWellFormed(t *testing.T) {
	eachPlugin(t, func(label string, fresh func() configurable) {
		p := fresh()
		ns := label[strings.IndexByte(label, '/')+1:]
		if alt, ok := namespaceExceptions[label]; ok {
			ns = alt
		}
		keyRE := regexp.MustCompile("^" + regexp.QuoteMeta(ns) + ":[a-z0-9_]+$")
		defaults := p.Options()
		seen := map[string]bool{}
		for _, spec := range p.Schema() {
			if !genericKeys[spec.Key] && !keyRE.MatchString(spec.Key) {
				t.Errorf("%s: key %q is neither %s:<name> nor a core.Key* constant", label, spec.Key, ns)
			}
			if seen[spec.Key] {
				t.Errorf("%s: duplicate key %q", label, spec.Key)
			}
			seen[spec.Key] = true
			if strings.TrimSpace(spec.Doc) == "" {
				t.Errorf("%s: %s has no doc", label, spec.Key)
			}
			got, ok := defaults.Get(spec.Key)
			if !ok {
				t.Errorf("%s: %s is declared but Options() omits it", label, spec.Key)
			} else if got.Type() != spec.Type {
				t.Errorf("%s: %s declared %s, Options() reports %s", label, spec.Key, spec.Type, got.Type())
			}
		}
		if label != "compressor/switch" { // lists its active child's options too
			for _, k := range defaults.Keys() {
				if !seen[k] {
					t.Errorf("%s: Options() reports undeclared key %q", label, k)
				}
			}
		}
		if err := p.CheckOptions(defaults); err != nil {
			t.Errorf("%s: defaults fail their own validation: %v", label, err)
		}
		if err := p.SetOptions(defaults); err != nil {
			t.Errorf("%s: SetOptions(Options()) = %v", label, err)
		}
		if after := p.Options(); after.String() != defaults.String() {
			t.Errorf("%s: SetOptions(Options()) is not a no-op:\n before %s\n after  %s", label, defaults, after)
		}
	})
}

// invalidValues derives, from a row's declared type and bounds, values the
// row must reject: one of a type that cannot convert, and one just outside
// each finite end of the interval (or outside the enumeration).
func invalidValues(spec core.OptionSpec) map[string]core.Option {
	bad := map[string]core.Option{"wrong type": core.OptionUserPtr(&struct{}{})}
	b := spec.Bounds
	switch {
	case len(b.OneOf) > 0:
		bad["not in the enumeration"] = core.NewOption("\x00no-such-choice")
	case b.Interval():
		if !math.IsInf(b.Lo, -1) {
			v := b.Lo - 1
			if b.LoOpen {
				v = b.Lo
			}
			bad["below the interval"] = core.NewOption(v)
		}
		if !math.IsInf(b.Hi, 1) {
			v := b.Hi + 1
			if b.HiOpen {
				v = b.Hi
			}
			bad["above the interval"] = core.NewOption(v)
		}
		if spec.Type == core.OptDouble {
			bad["NaN"] = core.NewOption(math.NaN())
		}
	}
	return bad
}

// TestSchemaRejectsInvalidAtomically feeds every settable row of every
// registered plugin the values invalidValues derives. CheckOptions and
// SetOptions must agree, name the key in a core.ErrInvalidOption, and leave
// Options() untouched — also when a valid key rides along with the bad one.
func TestSchemaRejectsInvalidAtomically(t *testing.T) {
	eachPlugin(t, func(label string, fresh func() configurable) {
		for _, spec := range fresh().Schema() {
			if spec.ReadOnly {
				continue
			}
			for why, v := range invalidValues(spec) {
				p := fresh()
				before := p.Options().String()
				o := p.Options().Set(spec.Key, v) // every default, plus the bad value
				for name, err := range map[string]error{"CheckOptions": p.CheckOptions(o), "SetOptions": p.SetOptions(o)} {
					if !errors.Is(err, core.ErrInvalidOption) || !strings.Contains(err.Error(), spec.Key) {
						t.Errorf("%s: %s(%s = %v, %s) = %v, want ErrInvalidOption naming the key",
							label, name, spec.Key, v, why, err)
					}
				}
				if after := p.Options().String(); after != before {
					t.Errorf("%s: failed SetOptions(%s = %v) changed Options():\n before %s\n after  %s",
						label, spec.Key, v, before, after)
				}
			}
		}
		p := fresh()
		stranger := core.NewOptions().SetValue("nobody:home", int32(1))
		if err := p.SetOptions(stranger); err != nil {
			t.Errorf("%s: unknown key rejected: %v (flat option sets configure whole compositions)", label, err)
		}
	})
}

func smallField() *core.Data {
	vals := make([]float32, 16*16)
	for i := range vals {
		vals[i] = float32(math.Sin(float64(i) / 7))
	}
	return core.FromFloat32s(vals, 16, 16)
}

// mustRejectAndStayUsable is the shape of every regression below: the option
// set is refused by both entry points, nothing is applied, and the instance
// still compresses afterwards (it used to be poisoned).
func mustRejectAndStayUsable(t *testing.T, name string, o *core.Options, key string) {
	t.Helper()
	c, err := core.NewCompressor(name)
	if err != nil {
		t.Fatal(err)
	}
	before := c.Options().String()
	for entry, err := range map[string]error{"CheckOptions": c.CheckOptions(o), "SetOptions": c.SetOptions(o)} {
		if !errors.Is(err, core.ErrInvalidOption) || !strings.Contains(err.Error(), key) {
			t.Errorf("%s.%s(%s) = %v, want ErrInvalidOption naming %s", name, entry, o, err, key)
		}
	}
	if after := c.Options().String(); after != before {
		t.Errorf("%s: rejected %s was partly applied:\n before %s\n after  %s", name, o, before, after)
	}
	if _, err := core.Compress(c, smallField()); err != nil {
		t.Errorf("%s: Compress after rejected %s: %v", name, o, err)
	}
}

func opts(kv ...any) *core.Options {
	o := core.NewOptions()
	for i := 0; i < len(kv); i += 2 {
		o.SetValue(kv[i].(string), kv[i+1])
	}
	return o
}

// SetOptions used to accept values CheckOptions rejects, poisoning the
// instance: every later Compress failed.
func TestRegressionSetAcceptsWhatCheckRejects(t *testing.T) {
	mustRejectAndStayUsable(t, "zfp", opts("zfp:rate", -3.0), "zfp:rate")
	mustRejectAndStayUsable(t, "tthresh", opts("tthresh:eps", -1.0), "tthresh:eps")
	for _, name := range []string{"sz", "sz_threadsafe", "sz_omp", "mgard"} {
		mustRejectAndStayUsable(t, name, opts(core.KeyAbs, -1.0), core.KeyAbs)
	}
}

// zfp with pressio:rel=-1 passed SetOptions and then compressed at a 1e-38
// tolerance.
func TestRegressionZfpNegativeRelBound(t *testing.T) {
	mustRejectAndStayUsable(t, "zfp", opts(core.KeyRel, -1.0), core.KeyRel)
}

// A failing SetOptions used to leave the keys it had already walked applied.
func TestRegressionPartialApply(t *testing.T) {
	mustRejectAndStayUsable(t, "sz_threadsafe",
		opts(core.KeyAbs, 0.5, "sz_threadsafe:max_quant_intervals", uint64(2)),
		"sz_threadsafe:max_quant_intervals")
}

// A value of a non-convertible type used to be ignored: SetOptions returned
// nil and the next Compress ran with the old value.
func TestRegressionWrongTypeIgnored(t *testing.T) {
	mustRejectAndStayUsable(t, "zfp", opts("zfp:rate", "fast"), "zfp:rate")
	mustRejectAndStayUsable(t, "zfp", opts("zfp:mode", int32(3)), "zfp:mode")
	mustRejectAndStayUsable(t, "zfp", opts("zfp:mode", "no-such-mode"), "zfp:mode")
}

// Wrappers used to merge a forwarded option into their saved set before the
// child saw it, so a value the child rejects passed Check and Set and failed
// the first Compress.
func TestRegressionWrapperValidatesChild(t *testing.T) {
	for _, name := range []string{"chunking", "guard", "breaker"} {
		mustRejectAndStayUsable(t, name,
			opts("sz_threadsafe:max_quant_intervals", uint64(2)),
			"sz_threadsafe:max_quant_intervals")
	}
}
