package core

// IOPlugin is the pressio_io component: a configurable source/sink of Data
// buffers. Implementations cover flat binary files ("posix"), CSV, the
// NumPy .npy format, synthetic generators ("iota"), sub-region selection
// ("select"), and the h5lite chunked container.
type IOPlugin interface {
	// Prefix returns the plugin name.
	Prefix() string
	// Options returns current options (e.g. "io:path").
	Options() *Options
	// SetOptions applies options; unknown keys are ignored.
	SetOptions(*Options) error
	// CheckOptions validates options without applying them.
	CheckOptions(*Options) error
	// Schema describes every option: key, type, doc and bounds.
	Schema() []OptionSpec
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
