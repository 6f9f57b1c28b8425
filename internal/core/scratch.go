package core

import (
	"math/bits"
	"sync"
	"unsafe"
	"weak"
)

// Pool is a sync.Pool of *T that holds its items through weak pointers, so a
// collection frees every item not in use. The collector paces the heap at
// twice the live bytes, so a strongly pooled MB would cost about 2 MB of
// peak memory; a weakly pooled one is reused only until the next collection.
type Pool[T any] struct{ p sync.Pool }

// Get returns a pooled item, or nil when none is alive.
func (p *Pool[T]) Get() *T {
	wp, _ := p.p.Get().(weak.Pointer[T])
	return wp.Value()
}

// Put hands v back to the pool; the caller must not touch it afterwards.
func (p *Pool[T]) Put(v *T) { p.p.Put(weak.Make(v)) }

// Plain is an element type scratch may hold: fixed-size and pointer-free.
type Plain interface {
	~int8 | ~int16 | ~int32 | ~int64 | ~uint8 | ~uint16 | ~uint32 | ~uint64 | ~float32 | ~float64
}

// scratch holds what codec calls make and drop before they return, shared by
// every codec and element type, keyed by size class (m·2^e bytes, m = 4..7,
// 64 the least). A buffer is a []uint64, aligned for any Plain type, pooled
// by a pointer to its first word. A request takes one of its class or the
// next 12 (up to 8 times its size): one codec's leftovers serve the next.
var scratch [4 * 64]Pool[uint64]

// scratchClass returns the smallest class holding n bytes.
func scratchClass(n int) int {
	e := bits.Len(uint(max(n, 64)-1)) - 3 // n-1 has three bits from bit e up
	return 4*e + (max(n, 64)-1)>>e - 3
}

func classSize(c int) int { return (4 + c%4) << (c / 4) }

// LargeObject is the Go runtime's large-object boundary (maxSmallSize). A
// make past it zeroes fresh heap pages, which scratch skips; at or below it
// the runtime's per-P size-class caches are cheaper than the pool. The
// serving layer takes a request or reply body from scratch only past it.
const LargeObject = 32 << 10

// GetScratch returns n Ts of scratch holding whatever the last user left.
// Hand it back with a deferred PutScratch, so error paths return it too, and
// never let it reach what the call returns.
func GetScratch[T Plain](n int) []T {
	var zero T
	width := int(unsafe.Sizeof(zero))
	class := scratchClass(n * width)
	for c := class; c < min(class+12, len(scratch)); c++ {
		if p := scratch[c].Get(); p != nil {
			return unsafe.Slice((*T)(unsafe.Pointer(p)), classSize(c)/width)[:n]
		}
	}
	buf := make([]uint64, classSize(class)/8)
	return unsafe.Slice((*T)(unsafe.Pointer(&buf[0])), len(buf)*8/width)[:n]
}

// PutScratch returns s, which GetScratch gave, to the pool; the caller must
// not touch s afterwards. Any other slice is dropped unless it has the
// capacity and alignment of one GetScratch gives.
func PutScratch[T Plain](s []T) {
	var zero T
	c, p := cap(s)*int(unsafe.Sizeof(zero)), unsafe.Pointer(unsafe.SliceData(s))
	if class := scratchClass(c); classSize(class) == c && uintptr(p)%8 == 0 {
		scratch[class].Put((*uint64)(p))
	}
}
