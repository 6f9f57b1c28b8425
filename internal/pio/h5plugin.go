package pio

import (
	"fmt"
	"os"

	"pressio/internal/core"
	"pressio/internal/h5lite"
)

func init() {
	core.RegisterIO("h5lite", func() core.IOPlugin { return &h5io{dataset: "data"} })
}

// h5io reads and writes datasets inside h5lite containers, the HDF5 IO
// plugin analogue. Options: io:path, h5:dataset, h5:filter (compressor name
// applied per chunk), h5:chunk_rows.
type h5io struct {
	pathConfig
	dataset   string
	filter    string
	chunkRows uint64
	filterAbs float64
}

func (h *h5io) Prefix() string { return "h5lite" }

var h5Schema = core.NewSchema(
	core.Field(core.KeyIOPath, pathDoc, core.Bounds{}, func(h *h5io) *string { return &h.path }),
	core.Field("h5:dataset", "name of the dataset inside the container", core.Bounds{},
		func(h *h5io) *string { return &h.dataset }),
	core.Field("h5:filter", "compressor applied to each chunk on write (empty = none)", core.Bounds{},
		func(h *h5io) *string { return &h.filter }),
	core.Field("h5:chunk_rows", "rows of the slowest dimension per chunk (0 = one chunk)", core.Bounds{},
		func(h *h5io) *uint64 { return &h.chunkRows }),
	core.Field("h5:filter_abs", "pressio:abs handed to the filter (0 = the filter's default)", core.AtLeast(0),
		func(h *h5io) *float64 { return &h.filterAbs }),
)

func (h *h5io) Options() *core.Options             { return h5Schema.Options(h) }
func (h *h5io) SetOptions(o *core.Options) error   { return h5Schema.Set(h, o) }
func (h *h5io) CheckOptions(o *core.Options) error { return h5Schema.Check(h, o) }
func (h *h5io) Schema() []core.OptionSpec          { return h5Schema.Specs() }

func (h *h5io) Configuration() *core.Options {
	return core.StandardConfiguration(core.ThreadSafetySerialized, "stable", "1.0.0", false)
}

func (h *h5io) Read(hint *core.Data) (*core.Data, error) {
	f, err := h5lite.Open(h.path)
	if err != nil {
		return nil, err
	}
	return f.ReadDataset(h.dataset)
}

func (h *h5io) Write(d *core.Data) error {
	var f *h5lite.File
	if _, err := os.Stat(h.path); err == nil {
		f, err = h5lite.Open(h.path)
		if err != nil {
			return fmt.Errorf("h5lite: rewriting %s: %w", h.path, err)
		}
	} else {
		f = h5lite.Create(h.path)
	}
	opts := h5lite.DatasetOptions{ChunkRows: h.chunkRows, Filter: h.filter}
	if h.filter != "" && h.filterAbs > 0 {
		opts.FilterOptions = map[string]float64{core.KeyAbs: h.filterAbs}
	}
	if err := f.WriteDataset(h.dataset, d, opts); err != nil {
		return err
	}
	return f.Save()
}

func (h *h5io) Clone() core.IOPlugin {
	clone := *h
	return &clone
}
