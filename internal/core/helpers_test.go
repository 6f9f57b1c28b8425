package core

// NewCompressorFromPlugin wraps an already-constructed plugin. Most callers
// use NewCompressor(name) instead.
func NewCompressorFromPlugin(p CompressorPlugin) *Compressor { return &Compressor{impl: p} }

// Members returns the composed metrics.
func (g *MetricsGroup) Members() []Metric { return g.members }

// Interval reports whether b is a numeric interval.
func (b Bounds) Interval() bool { return b.interval }
