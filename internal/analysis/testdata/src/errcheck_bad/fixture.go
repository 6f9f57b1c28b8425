// Package errcheck_bad discards errors from the watched hot-path methods.
// The explicit `_ =` acknowledgment, the `defer Close` cleanup idiom and a
// chaining Set that returns no error must stay unflagged.
package errcheck_bad

import "errors"

type compressor struct{}

func (c *compressor) Compress() error        { return nil }
func (c *compressor) SetOptions(v int) error { return errors.New("unsupported") }
func (c *compressor) Opts() table            { return table{} }

// table is shaped like a bound option table: Set and Check return an error.
type table struct{}

func (table) Set(v int) error   { return errors.New("unsupported") }
func (table) Check(v int) error { return nil }

// options is shaped like an option set: Set chains and returns no error.
type options struct{}

func (o *options) Set(k string) *options { return o }

type file struct{}

func (f *file) Close() error { return nil }

func run() {
	c := &compressor{}
	f := &file{}
	o := &options{}
	c.Compress()
	c.SetOptions(1)
	f.Close()
	c.Opts().Set(1)
	c.Opts().Check(1)
	o.Set("k")
	_ = c.Compress()
	defer f.Close()
}
