// Package panicfree_bad exercises the panicfree analyzer: a constructed
// compressor panicking from CompressImpl and DecompressImpl (including
// inside a nested closure) must be flagged, while panics in implementations
// nothing constructs, helper methods, and non-plugin types must not. The
// Register* stand-in is declared locally; the factory literal naming
// throwing is what makes it constructed.
package panicfree_bad

type CompressorIface interface{ Prefix() string }

func RegisterCompressor(name string, factory func() CompressorIface) {}

// throwing is registered and panics on both hot paths.
type throwing struct{}

func (t *throwing) Prefix() string { return "throwing" }

func (t *throwing) CompressImpl(in []byte) []byte {
	if len(in) == 0 {
		panic("empty input")
	}
	return in
}

func (t *throwing) DecompressImpl(in []byte) []byte {
	check := func() {
		panic("corrupt stream")
	}
	check()
	return in
}

// helper panics are outside the checked methods: the analyzer only claims
// the direct bodies, so this stays silent (the errflow suite owns deeper
// call-graph reasoning).
func (t *throwing) validate() {
	panic("helper panic is not flagged")
}

// orphan matches the compressor method set but is named only by its own
// receivers, so nothing constructs or registers it: its panic is unreachable
// and not reported here (deadcode reports the orphan's methods).
type orphan struct{}

func (o *orphan) Prefix() string { return "orphan" }

func (o *orphan) CompressImpl(in []byte) []byte {
	panic("unregistered")
}

func (o *orphan) DecompressImpl(in []byte) []byte { return in }

// notAPlugin shares a method name but not the plugin method set.
type notAPlugin struct{}

func (n *notAPlugin) CompressImpl(in []byte) []byte {
	panic("no Prefix, not a plugin")
}

func init() {
	RegisterCompressor("throwing", func() CompressorIface { return &throwing{} })
}
