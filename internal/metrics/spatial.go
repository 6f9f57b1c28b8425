package metrics

import (
	"math"
	"sort"

	"pressio/internal/core"
)

// Option and result keys these metrics own.
const (
	keySpatialThreshold = "spatial_error:threshold"
	keyKthK             = "kth_error:k"
	keyROIStart         = "region_of_interest:start"
	keyROIEnd           = "region_of_interest:end"
)

// spatialError reports the percentage of elements whose absolute error
// exceeds a threshold (the paper's "Spatial Error" module).
type spatialError struct {
	capture
	threshold float64
	computed  bool
	percent   float64
	count     uint64
}

func newSpatialError() *spatialError { return &spatialError{threshold: 1e-4} }

func (m *spatialError) Prefix() string { return "spatial_error" }

var spatialErrorSchema = core.NewSchema(
	core.Field(keySpatialThreshold, "absolute error above which an element counts", core.AtLeast(0),
		func(m *spatialError) *float64 { return &m.threshold }),
)

func (m *spatialError) Options() *core.Options             { return spatialErrorSchema.Options(m) }
func (m *spatialError) SetOptions(o *core.Options) error   { return spatialErrorSchema.Set(m, o) }
func (m *spatialError) CheckOptions(o *core.Options) error { return spatialErrorSchema.Check(m, o) }
func (m *spatialError) Schema() []core.OptionSpec          { return spatialErrorSchema.Specs() }

func (m *spatialError) EndDecompress(in, out *core.Data, err error) {
	if err != nil {
		return
	}
	orig, dec, ok := m.pair(out)
	if !ok || len(orig) == 0 {
		return
	}
	var count uint64
	for i := range orig {
		if math.Abs(dec[i]-orig[i]) > m.threshold {
			count++
		}
	}
	m.count = count
	m.percent = 100 * float64(count) / float64(len(orig))
	m.computed = true
}

func (m *spatialError) Results() *core.Options {
	o := core.NewOptions()
	if m.computed {
		o.SetValue("spatial_error:percent", m.percent)
		o.SetValue("spatial_error:count", m.count)
		o.SetValue(keySpatialThreshold, m.threshold)
	}
	return o
}

func (m *spatialError) Clone() core.Metric { return &spatialError{threshold: m.threshold} }

// kthError reports the k-th largest absolute error (the "k-th order error"
// module): more robust than the maximum against isolated outliers.
type kthError struct {
	capture
	k        uint64
	computed bool
	value    float64
}

func newKthError() *kthError { return &kthError{k: 1} }

func (m *kthError) Prefix() string { return "kth_error" }

var kthErrorSchema = core.NewSchema(
	core.Field(keyKthK, "report the k-th largest absolute error", core.AtLeast(1),
		func(m *kthError) *uint64 { return &m.k }),
)

func (m *kthError) Options() *core.Options             { return kthErrorSchema.Options(m) }
func (m *kthError) SetOptions(o *core.Options) error   { return kthErrorSchema.Set(m, o) }
func (m *kthError) CheckOptions(o *core.Options) error { return kthErrorSchema.Check(m, o) }
func (m *kthError) Schema() []core.OptionSpec          { return kthErrorSchema.Specs() }

func (m *kthError) EndDecompress(in, out *core.Data, err error) {
	if err != nil {
		return
	}
	orig, dec, ok := m.pair(out)
	if !ok || len(orig) == 0 || m.k > uint64(len(orig)) {
		return
	}
	errs := make([]float64, len(orig))
	for i := range orig {
		errs[i] = math.Abs(dec[i] - orig[i])
	}
	sort.Float64s(errs)
	m.value = errs[uint64(len(errs))-m.k]
	m.computed = true
}

func (m *kthError) Results() *core.Options {
	o := core.NewOptions()
	if m.computed {
		o.SetValue("kth_error:value", m.value)
		o.SetValue(keyKthK, m.k)
	}
	return o
}

func (m *kthError) Clone() core.Metric { return &kthError{k: m.k} }

// regionOfInterest reports the arithmetic mean of a box-shaped region of
// both the original and decompressed data, to check that features of
// interest survive compression.
type regionOfInterest struct {
	capture
	start    []uint64 // per-dimension inclusive start
	end      []uint64 // per-dimension exclusive end
	computed bool
	origMean float64
	decMean  float64
}

func (m *regionOfInterest) Prefix() string { return "region_of_interest" }

var roiSchema = core.NewSchema(
	core.Uint64s(keyROIStart, "per-dimension inclusive start of the box",
		func(m *regionOfInterest) *[]uint64 { return &m.start }).WriteOnly(),
	core.Uint64s(keyROIEnd, "per-dimension exclusive end of the box",
		func(m *regionOfInterest) *[]uint64 { return &m.end }).WriteOnly(),
)

func (m *regionOfInterest) Options() *core.Options             { return roiSchema.Options(m) }
func (m *regionOfInterest) SetOptions(o *core.Options) error   { return roiSchema.Set(m, o) }
func (m *regionOfInterest) CheckOptions(o *core.Options) error { return roiSchema.Check(m, o) }
func (m *regionOfInterest) Schema() []core.OptionSpec          { return roiSchema.Specs() }

// roiMean averages the values inside the box [start, end) of a tensor.
func roiMean(vals []float64, dims, start, end []uint64) (float64, uint64) {
	if len(start) != len(dims) || len(end) != len(dims) {
		return 0, 0
	}
	for i := range dims {
		if start[i] >= end[i] || end[i] > dims[i] {
			return 0, 0
		}
	}
	var sum float64
	var count uint64
	idx := make([]uint64, len(dims))
	copy(idx, start)
	for {
		lin := uint64(0)
		for i := range dims {
			lin = lin*dims[i] + idx[i]
		}
		sum += vals[lin]
		count++
		// Advance the multi-index within the box.
		d := len(dims) - 1
		for d >= 0 {
			idx[d]++
			if idx[d] < end[d] {
				break
			}
			idx[d] = start[d]
			d--
		}
		if d < 0 {
			break
		}
	}
	return sum / float64(count), count
}

func (m *regionOfInterest) EndDecompress(in, out *core.Data, err error) {
	if err != nil || m.input == nil || len(m.start) == 0 {
		return
	}
	orig, dec, ok := m.pair(out)
	if !ok {
		return
	}
	origMean, n := roiMean(orig, m.input.Dims(), m.start, m.end)
	if n == 0 {
		return
	}
	decMean, _ := roiMean(dec, m.input.Dims(), m.start, m.end)
	m.origMean, m.decMean = origMean, decMean
	m.computed = true
}

func (m *regionOfInterest) Results() *core.Options {
	o := core.NewOptions()
	if m.computed {
		o.SetValue("region_of_interest:original_mean", m.origMean)
		o.SetValue("region_of_interest:decompressed_mean", m.decMean)
		o.SetValue("region_of_interest:mean_drift", math.Abs(m.decMean-m.origMean))
	}
	return o
}

func (m *regionOfInterest) Clone() core.Metric {
	return &regionOfInterest{
		start: append([]uint64(nil), m.start...),
		end:   append([]uint64(nil), m.end...),
	}
}

// printer is a diagnostic metric that records the sequence of hook
// invocations; tests and tutorials use it to observe the framework's hook
// protocol.
type printer struct {
	core.NoOptions
	events []string
}

func (m *printer) Prefix() string { return "printer" }

func (m *printer) BeginCompress(in *core.Data) { m.events = append(m.events, "begin_compress") }
func (m *printer) EndCompress(in, out *core.Data, err error) {
	m.events = append(m.events, "end_compress")
}
func (m *printer) BeginDecompress(in *core.Data) { m.events = append(m.events, "begin_decompress") }
func (m *printer) EndDecompress(in, out *core.Data, e error) {
	m.events = append(m.events, "end_decompress")
}

func (m *printer) Results() *core.Options {
	return core.NewOptions().SetValue("printer:events", append([]string(nil), m.events...))
}

func (m *printer) Clone() core.Metric { return &printer{} }
