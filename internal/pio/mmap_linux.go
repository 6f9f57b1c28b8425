//go:build linux

package pio

import (
	"fmt"
	"os"
	"syscall"

	"pressio/internal/core"
)

func init() {
	core.RegisterIO("mmap", func() core.IOPlugin { return &mmapIO{pathConfig{name: "mmap"}} })
}

// mmapIO reads files through the mmap system call — the paper's "mmap" IO
// plugin, whose point is that the Data abstraction's ownership model
// accommodates memory it did not allocate. The mapping is copied into the
// returned Data on read (Go's GC cannot track mapped pages safely across
// arbitrary lifetimes), demonstrating the borrow-then-adopt pattern; Write
// falls back to an ordinary file write plus sync.
type mmapIO struct {
	pathConfig
}

func (m *mmapIO) Configuration() *core.Options {
	return core.StandardConfiguration(core.ThreadSafetyMultiple, "stable", "1.0.0", false)
}

func (m *mmapIO) Read(hint *core.Data) (*core.Data, error) {
	f, err := os.Open(m.path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	size := int(fi.Size())
	if size == 0 {
		return core.NewBytes(nil), nil
	}
	mapped, err := syscall.Mmap(int(f.Fd()), 0, size, syscall.PROT_READ, syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("mmap: %w", err)
	}
	defer syscall.Munmap(mapped)
	buf := append([]byte(nil), mapped...)
	if hint != nil && hint.DType() != core.DTypeUnset && hint.NumDims() > 0 {
		return core.NewMove(hint.DType(), buf, hint.Dims()...)
	}
	return core.NewBytes(buf), nil
}

func (m *mmapIO) Write(d *core.Data) error {
	f, err := os.Create(m.path)
	if err != nil {
		return err
	}
	if _, err := f.Write(d.Bytes()); err != nil {
		_ = f.Close() // the write error is the one worth reporting
		return err
	}
	if err := f.Sync(); err != nil {
		_ = f.Close() // likewise: surface the sync failure
		return err
	}
	return f.Close()
}

func (m *mmapIO) Clone() core.IOPlugin {
	clone := *m
	return &clone
}
