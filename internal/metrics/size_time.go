package metrics

import (
	"time"

	"pressio/internal/core"
)

// sizeMetric reports compressed/uncompressed sizes, the compression ratio,
// and the bit rate — the metric used in the paper's Appendix A example
// ("size:compression_ratio").
type sizeMetric struct {
	core.NoOptions
	uncompressed uint64
	compressed   uint64
	decompressed uint64
	elements     uint64
}

func (m *sizeMetric) Prefix() string { return "size" }

func (m *sizeMetric) BeginCompress(in *core.Data) {
	m.uncompressed = in.ByteLen()
	m.elements = in.Len()
}

func (m *sizeMetric) EndCompress(in, out *core.Data, err error) {
	if err == nil && out != nil {
		m.compressed = out.ByteLen()
	}
}

func (m *sizeMetric) BeginDecompress(in *core.Data) {
	if m.compressed == 0 && in != nil {
		m.compressed = in.ByteLen()
	}
}

func (m *sizeMetric) EndDecompress(in, out *core.Data, err error) {
	if err == nil && out != nil {
		m.decompressed = out.ByteLen()
		if m.uncompressed == 0 {
			m.uncompressed = out.ByteLen()
			m.elements = out.Len()
		}
	}
}

func (m *sizeMetric) Results() *core.Options {
	o := core.NewOptions()
	o.SetValue("size:uncompressed_size", m.uncompressed)
	o.SetValue("size:compressed_size", m.compressed)
	o.SetValue("size:decompressed_size", m.decompressed)
	if m.compressed > 0 && m.uncompressed > 0 {
		o.SetValue("size:compression_ratio", float64(m.uncompressed)/float64(m.compressed))
	}
	if m.elements > 0 && m.compressed > 0 {
		o.SetValue("size:bit_rate", float64(m.compressed*8)/float64(m.elements))
	}
	return o
}

func (m *sizeMetric) Clone() core.Metric { return &sizeMetric{} }

// timeMetric reports wall-clock times of the wrapped operations in
// milliseconds, accumulating across calls.
type timeMetric struct {
	core.NoOptions
	compressStart   time.Time
	decompressStart time.Time
	compressMS      float64
	decompressMS    float64
	compressN       uint64
	decompressN     uint64
}

func (m *timeMetric) Prefix() string { return "time" }

func (m *timeMetric) BeginCompress(in *core.Data) { m.compressStart = time.Now() }

func (m *timeMetric) EndCompress(in, out *core.Data, err error) {
	m.compressMS += float64(time.Since(m.compressStart).Nanoseconds()) / 1e6
	m.compressN++
}

func (m *timeMetric) BeginDecompress(in *core.Data) { m.decompressStart = time.Now() }

func (m *timeMetric) EndDecompress(in, out *core.Data, err error) {
	m.decompressMS += float64(time.Since(m.decompressStart).Nanoseconds()) / 1e6
	m.decompressN++
}

func (m *timeMetric) Results() *core.Options {
	o := core.NewOptions()
	o.SetValue("time:compress", m.compressMS)
	o.SetValue("time:decompress", m.decompressMS)
	o.SetValue("time:compress_calls", m.compressN)
	o.SetValue("time:decompress_calls", m.decompressN)
	return o
}

func (m *timeMetric) Clone() core.Metric { return &timeMetric{} }
