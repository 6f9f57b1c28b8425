package core

// Metric is the pressio_metrics component: a plugin whose hooks run around
// compression and decompression and which reports results as introspectable
// Options (e.g. "size:compression_ratio", "error_stat:psnr").
//
// Hooks receive the same Data values the compressor sees. EndDecompress
// receives the original-as-compressed input too so error metrics can compare
// against it when the client stashed it via TrackInput.
type Metric interface {
	// Prefix returns the metric name that namespaces its results.
	Prefix() string
	// Options returns settable options for the metric (may be empty).
	Options() *Options
	// SetOptions applies options; unknown keys are ignored.
	SetOptions(*Options) error
	// CheckOptions validates options without applying them.
	CheckOptions(*Options) error
	// Schema describes every option: key, type, doc and bounds.
	Schema() []OptionSpec
	// BeginCompress runs before compression of in.
	BeginCompress(in *Data)
	// EndCompress runs after compression with the produced output and error.
	EndCompress(in, out *Data, err error)
	// BeginDecompress runs before decompression of in.
	BeginDecompress(in *Data)
	// EndDecompress runs after decompression with the produced output.
	EndDecompress(in, out *Data, err error)
	// Results reports all measurements taken so far.
	Results() *Options
	// Clone returns an independent metric with the same configuration and
	// fresh (empty) measurement state.
	Clone() Metric
}

// MetricsGroup composes several metrics into one, fanning every hook out to
// each member and merging their results (the "composite" metrics module).
type MetricsGroup struct {
	members []Metric
}

// NewMetricsGroup builds a composite from the given members.
func NewMetricsGroup(members ...Metric) *MetricsGroup {
	return &MetricsGroup{members: members}
}

// Prefix implements Metric.
func (g *MetricsGroup) Prefix() string { return "composite" }

// Options merges member options.
func (g *MetricsGroup) Options() *Options {
	o := NewOptions()
	for _, m := range g.members {
		o.Merge(m.Options())
	}
	return o
}

// SetOptions forwards to every member once every member accepts o.
func (g *MetricsGroup) SetOptions(o *Options) error {
	if err := g.CheckOptions(o); err != nil {
		return err
	}
	for _, m := range g.members {
		if err := m.SetOptions(o); err != nil {
			return err
		}
	}
	return nil
}

// CheckOptions asks every member.
func (g *MetricsGroup) CheckOptions(o *Options) error {
	for _, m := range g.members {
		if err := m.CheckOptions(o); err != nil {
			return err
		}
	}
	return nil
}

// Schema concatenates the members' rows.
func (g *MetricsGroup) Schema() []OptionSpec {
	var specs []OptionSpec
	for _, m := range g.members {
		specs = append(specs, m.Schema()...)
	}
	return specs
}

// BeginCompress implements Metric.
func (g *MetricsGroup) BeginCompress(in *Data) {
	for _, m := range g.members {
		m.BeginCompress(in)
	}
}

// EndCompress implements Metric.
func (g *MetricsGroup) EndCompress(in, out *Data, err error) {
	for _, m := range g.members {
		m.EndCompress(in, out, err)
	}
}

// BeginDecompress implements Metric.
func (g *MetricsGroup) BeginDecompress(in *Data) {
	for _, m := range g.members {
		m.BeginDecompress(in)
	}
}

// EndDecompress implements Metric.
func (g *MetricsGroup) EndDecompress(in, out *Data, err error) {
	for _, m := range g.members {
		m.EndDecompress(in, out, err)
	}
}

// Results merges member results.
func (g *MetricsGroup) Results() *Options {
	o := NewOptions()
	for _, m := range g.members {
		o.Merge(m.Results())
	}
	return o
}

// Clone implements Metric.
func (g *MetricsGroup) Clone() Metric {
	members := make([]Metric, len(g.members))
	for i, m := range g.members {
		members[i] = m.Clone()
	}
	return &MetricsGroup{members: members}
}
