package core

// IOPlugin is the pressio_io component: a configurable source/sink of Data
// buffers. Implementations cover flat binary files ("posix"), CSV, the
// NumPy .npy format, synthetic generators ("iota"), sub-region selection
// ("select"), and the h5lite chunked container.
type IOPlugin interface {
	// Prefix returns the plugin name.
	Prefix() string
	// Opts returns the plugin's option table (e.g. "io:path") bound to this
	// instance.
	Opts() Opts
	// Configuration returns read-only plugin facts.
	Configuration() *Options
	// Read produces a Data buffer. hint, when non-nil, provides the
	// expected dtype and dims for formats that do not self-describe (flat
	// binary); self-describing formats ignore it.
	Read(hint *Data) (*Data, error)
	// Write persists the buffer.
	Write(d *Data) error
	// Clone returns an independent instance with the same configuration.
	Clone() IOPlugin
}

// KeyIOPath is the conventional option name for a file path.
const KeyIOPath = "io:path"
