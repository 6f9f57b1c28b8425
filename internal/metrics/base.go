// Package metrics implements the pressio_metrics plugin family: modules
// whose hooks run around compression and decompression and report
// measurements as introspectable options. The modules mirror the paper's
// glossary: size, timing, single-pass error statistics, Pearson
// correlation, autocorrelation, the Kolmogorov-Smirnov test, KL divergence,
// difference PDFs, spatial error, k-th order error, region-of-interest
// means, and masked variants.
package metrics

import (
	"pressio/internal/core"
)

// capture is the shared state for metrics that compare the compressor's
// input with the decompressed output: BeginCompress stashes the input, and
// EndDecompress pairs it with the reconstruction.
type capture struct {
	input *core.Data
}

// BeginCompress records the uncompressed input (shallow reference; the
// framework guarantees inputs are not clobbered).
func (c *capture) BeginCompress(in *core.Data) { c.input = in }

// EndCompress implements the Metric hook (no-op).
func (c *capture) EndCompress(in, out *core.Data, err error) {}

// BeginDecompress implements the Metric hook (no-op).
func (c *capture) BeginDecompress(in *core.Data) {}

// pair returns the (original, decompressed) value slices when both are
// available and comparable.
func (c *capture) pair(out *core.Data) (orig, dec []float64, ok bool) {
	if c.input == nil || out == nil || !out.HasData() || !c.input.DType().Numeric() {
		return nil, nil, false
	}
	if !out.DType().Numeric() || out.Len() != c.input.Len() {
		return nil, nil, false
	}
	return c.input.AsFloat64s(), out.AsFloat64s(), true
}

func init() {
	core.RegisterMetric("size", func() core.Metric { return &sizeMetric{} })
	core.RegisterMetric("time", func() core.Metric { return &timeMetric{} })
	core.RegisterMetric("error_stat", func() core.Metric { return &errorStat{} })
	core.RegisterMetric("pearson", func() core.Metric { return &pearson{} })
	core.RegisterMetric("autocorrelation", func() core.Metric { return newAutocorr() })
	core.RegisterMetric("ks_test", func() core.Metric { return &ksTest{} })
	core.RegisterMetric("kl_divergence", func() core.Metric { return newKL() })
	core.RegisterMetric("diff_pdf", func() core.Metric { return newDiffPDF() })
	core.RegisterMetric("spatial_error", func() core.Metric { return newSpatialError() })
	core.RegisterMetric("kth_error", func() core.Metric { return newKthError() })
	core.RegisterMetric("region_of_interest", func() core.Metric { return &regionOfInterest{} })
	core.RegisterMetric("printer", func() core.Metric { return &printer{} })
}
