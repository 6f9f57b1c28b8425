package h5lite

import "fmt"

// Meta returns the metadata of the named dataset.
func (f *File) Meta(name string) (DatasetMeta, error) {
	info, ok := f.idx.Datasets[name]
	if !ok {
		return DatasetMeta{}, fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	return DatasetMeta{
		DType:   info.DType,
		Dims:    append([]uint64(nil), info.Dims...),
		Filter:  info.Filter,
		Options: info.Options,
	}, nil
}
