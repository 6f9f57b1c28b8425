package core

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestForEachBoundsInFlightAndStrides(t *testing.T) {
	const n, workers = 23, 3
	var inFlight, peak atomic.Int32
	owner := make([]int, n)
	err := ForEach(n, workers, func(w, i int) error {
		now := inFlight.Add(1)
		for old := peak.Load(); now > old && !peak.CompareAndSwap(old, now); old = peak.Load() {
		}
		time.Sleep(100 * time.Microsecond) // let the other workers overlap
		owner[i] = w
		inFlight.Add(-1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := peak.Load(); got > workers {
		t.Fatalf("%d calls in flight, want at most %d", got, workers)
	}
	for i, w := range owner {
		if w != i%workers {
			t.Fatalf("item %d ran on worker %d, want the static stride's %d", i, w, i%workers)
		}
	}
}

func TestForEachReturnsLowestIndexError(t *testing.T) {
	// Item 1 (worker 1) fails late, item 6 (worker 0) fails at once: the
	// lower index wins although the higher one is recorded first.
	late := make(chan struct{})
	var attempted atomic.Int32
	err := ForEach(8, 2, func(_, i int) error {
		attempted.Add(1)
		switch i {
		case 1:
			<-late
			return errors.New("item 1")
		case 6:
			defer close(late)
			return errors.New("item 6")
		}
		return nil
	})
	if err == nil || err.Error() != "item 1" {
		t.Fatalf("ForEach returned %v, want item 1's error", err)
	}
	if attempted.Load() != 8 {
		t.Fatalf("%d items attempted, want all 8 despite the failures", attempted.Load())
	}
}

// goroutineHeader returns the running goroutine's id as the runtime prints it.
func goroutineHeader() string {
	var buf [40]byte
	return strings.Fields(string(buf[:runtime.Stack(buf[:], false)]))[1]
}

func TestForEachDegenerateCounts(t *testing.T) {
	if err := ForEach(0, 4, func(_, _ int) error { return errors.New("called") }); err != nil {
		t.Fatalf("n = 0: %v", err)
	}
	// One worker, asked for or forced by n, runs on the caller's goroutine.
	for _, c := range []struct{ n, workers int }{{5, 1}, {1, 8}} {
		caller := goroutineHeader()
		calls := 0
		if err := ForEach(c.n, c.workers, func(w, _ int) error {
			if got := goroutineHeader(); got != caller || w != 0 {
				t.Errorf("n=%d workers=%d: ran as worker %d on %q, caller is %q", c.n, c.workers, w, got, caller)
			}
			calls++
			return nil
		}); err != nil || calls != c.n {
			t.Fatalf("n=%d workers=%d: %d calls, %v", c.n, c.workers, calls, err)
		}
	}
}

func TestForEachCloneHonoursThreadSafety(t *testing.T) {
	bufs := 6
	for _, c := range []struct {
		safety  ThreadSafety
		workers int
		want    int
	}{
		{ThreadSafetyMultiple, 3, 3},
		{ThreadSafetySerialized, 3, 3},
		{ThreadSafetySingle, 3, 1},
		{ThreadSafetyMultiple, 64, bufs},
	} {
		p := newFake()
		p.threadSafe = c.safety
		proto := NewCompressorFromPlugin(p)
		seen := make([]*Compressor, bufs)
		clones, err := ForEachClone(proto, bufs, c.workers, func(cl *Compressor, w, i int) error {
			seen[i] = cl
			return nil
		})
		if err != nil || len(clones) != c.want {
			t.Fatalf("%v/%d: %d clones, %v; want %d", c.safety, c.workers, len(clones), err, c.want)
		}
		for i, cl := range seen {
			if cl == proto || cl != clones[i%c.want] {
				t.Fatalf("%v/%d: item %d did not get its worker's clone", c.safety, c.workers, i)
			}
		}
	}
}

func TestRowBytes(t *testing.T) {
	for _, c := range []struct {
		dtype DType
		dims  []uint64
		want  uint64
		err   error
	}{
		{DTypeFloat32, []uint64{9}, 4, nil},
		{DTypeFloat32, []uint64{0}, 4, nil},
		{DTypeFloat64, []uint64{9, 3, 5}, 120, nil},
		{DTypeByte, []uint64{0, 7}, 7, nil},
		{DTypeFloat64, nil, 0, ErrInvalidDims},
		{DTypeFloat64, []uint64{4, 0}, 0, ErrInvalidDims},
		{DTypeFloat64, []uint64{1, 1 << 32, 1 << 32}, 0, ErrInvalidDims}, // wraps to 0
		{DTypeFloat64, []uint64{1, 1 << 31, 1 << 30}, 0, ErrInvalidDims}, // 2^61 elements: the byte count would wrap
		{DTypeUnset, []uint64{4, 4}, 0, ErrInvalidDType},
	} {
		got, err := RowBytes(c.dtype, c.dims)
		if !errors.Is(err, c.err) || (c.err == nil && (err != nil || got != c.want)) {
			t.Errorf("RowBytes(%s, %v) = %d, %v; want %d, %v", c.dtype, c.dims, got, err, c.want, c.err)
		}
	}
}

func TestRowsAliasesAndChecksRange(t *testing.T) {
	d := FromFloat32s(make([]float32, 4*3), 4, 3)
	mid, err := d.Rows(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(mid.Dims()) != "[2 3]" || mid.DType() != DTypeFloat32 || mid.ByteLen() != 24 {
		t.Fatalf("Rows(1, 2) = %v", mid)
	}
	mid.Float32s()[0] = 7
	if d.Float32s()[3] != 7 {
		t.Fatal("the view does not alias its parent")
	}
	if got := cap(mid.Bytes()); got != 24 {
		t.Fatalf("the view's capacity %d reaches into the next row", got)
	}
	if empty, err := d.Rows(4, 0); err != nil || empty.ByteLen() != 0 {
		t.Fatalf("Rows(4, 0) = %v, %v", empty, err)
	}
	for _, c := range [][2]uint64{{0, 5}, {4, 1}, {5, 0}, {2, 1<<64 - 1}, {1<<64 - 1, 2}} {
		if _, err := d.Rows(c[0], c[1]); !errors.Is(err, ErrInvalidDims) {
			t.Errorf("Rows(%d, %d): %v, want ErrInvalidDims", c[0], c[1], err)
		}
	}
	if _, err := NewEmpty(DTypeFloat32, 4, 3).Rows(0, 1); !errors.Is(err, ErrInvalidDims) {
		t.Errorf("Rows on a hint with no storage: %v, want ErrInvalidDims", err)
	}
}
