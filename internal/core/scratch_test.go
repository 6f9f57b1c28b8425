package core_test

import (
	"bytes"
	"fmt"
	"math"
	"sync"
	"testing"

	"pressio/internal/core"
)

// TestScratchSizes checks the buffers GetScratch hands out: at least the
// request and 64 bytes, and at most a quarter over it times the eightfold
// reach into larger classes.
func TestScratchSizes(t *testing.T) {
	for _, n := range []int{0, 1, 7, 8, 9, 100, 1000, 1 << 16, 1<<16 + 1, 3 << 20} {
		s := core.GetScratch[uint32](n)
		if len(s) != n || 4*cap(s) < max(64, 4*n) || 4*cap(s) > 8*max(64, 5*n) {
			t.Errorf("GetScratch[uint32](%d): len %d cap %d", n, len(s), cap(s))
		}
		for i := range s {
			s[i] = uint32(i)
		}
		core.PutScratch(s)
		b := core.GetScratch[float64](n)
		if len(b) != n {
			t.Errorf("GetScratch[float64](%d): len %d", n, len(b))
		}
		core.PutScratch(b)
	}
	// A slice GetScratch did not give is dropped, not pooled.
	core.PutScratch(make([]byte, 100))
	core.PutScratch([]byte(nil))
}

// scratchField is a smooth field of the given shape whose values depend on
// seed, so fields of one shape differ too.
func scratchField(seed int, dims ...uint64) *core.Data {
	n := 1
	for _, d := range dims {
		n *= int(d)
	}
	v := make([]float32, n)
	for i := range v {
		x := float64(i) / float64(n)
		v[i] = float32(math.Sin(7*x+float64(seed)) + 0.3*math.Cos(31*x*float64(seed+1)))
	}
	return core.FromFloat32s(v, dims...)
}

// TestScratchSharedAcrossClones round-trips fields of several sizes through
// separate clones of the pooled codecs from several goroutines at once. Every
// stream must equal the one a serial call produces and every decode the
// serial decode: scratch a call takes is its own until it hands it back.
func TestScratchSharedAcrossClones(t *testing.T) {
	fields := []*core.Data{
		scratchField(1, 16, 16, 16),
		scratchField(2, 8, 24, 20),
		scratchField(3, 3000),
		scratchField(4, 12, 40),
	}
	for _, name := range []string{"sz_threadsafe", "zfp", "mgard", "fpzip"} {
		t.Run(name, func(t *testing.T) {
			proto, err := core.NewCompressor(name)
			if err != nil {
				t.Fatal(err)
			}
			if name != "fpzip" {
				if err := proto.SetOptions(core.NewOptions().SetValue(core.KeyAbs, 1e-3)); err != nil {
					t.Fatal(err)
				}
			}
			streams := make([][]byte, len(fields))
			decoded := make([][]byte, len(fields))
			for i, f := range fields {
				streams[i], decoded[i], err = roundTrip(proto.Clone(), f)
				if err != nil {
					t.Fatal(err)
				}
			}
			const workers, rounds = 4, 3
			var wg sync.WaitGroup
			errs := make(chan error, workers)
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					c := proto.Clone()
					for r := 0; r < rounds; r++ {
						for k := range fields {
							i := (w + k) % len(fields) // each worker starts on its own field
							s, d, err := roundTrip(c, fields[i])
							switch {
							case err != nil:
								errs <- err
								return
							case !bytes.Equal(s, streams[i]):
								errs <- fmt.Errorf("worker %d field %d: stream differs from the serial one", w, i)
								return
							case !bytes.Equal(d, decoded[i]):
								errs <- fmt.Errorf("worker %d field %d: decode differs from the serial one", w, i)
								return
							}
						}
					}
				}(w)
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Error(err)
			}
		})
	}
}

func roundTrip(c *core.Compressor, f *core.Data) (stream, decoded []byte, err error) {
	out, err := core.Compress(c, f)
	if err != nil {
		return nil, nil, err
	}
	dec, err := core.Decompress(c, out, f.DType(), f.Dims()...)
	if err != nil {
		return nil, nil, err
	}
	return out.Bytes(), dec.Bytes(), nil
}
