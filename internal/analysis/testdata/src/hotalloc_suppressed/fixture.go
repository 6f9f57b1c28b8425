// Package hotalloc_suppressed waives deliberate hot-path allocations with
// //lint:ignore; the analyzer must report nothing. (The allocations are real:
// the waivers document why they are tolerated.)
package hotalloc_suppressed

//pressio:hotpath fixture kernel
func collectOutliers(xs []int) []int {
	var out []int
	for _, x := range xs {
		if x > 1000 {
			//lint:ignore hotalloc outlier accumulation is data-dependent; preallocating len(xs) would defeat the point
			out = append(out, x)
		}
	}
	return out
}

//pressio:hotpath fixture kernel
func retainAll(xs []int) []*int {
	keep := make([]*int, 0, len(xs))
	for i := range xs {
		//lint:ignore hotalloc the pointees are the retained result; they must be heap-allocated
		p := new(int)
		*p = xs[i]
		keep = append(keep, p)
	}
	return keep
}
