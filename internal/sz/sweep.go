package sz

import (
	"math"

	"pressio/internal/core"
)

// lorenzo computes the restricted Lorenzo prediction for position (x,y,z)
// from the reconstructed slice: the inclusion-exclusion sum over the
// neighbors available within bounds (dimensions at index 0 drop out, so the
// predictor degrades gracefully from 3-D to 2-D to 1-D at boundaries).
func lorenzo[T core.Float](r []T, x, y, z, ny, nz int) float64 {
	base := (x*ny + y) * nz
	switch {
	case x > 0 && y > 0 && z > 0:
		pm := ((x-1)*ny + y) * nz // x-1 plane
		qm := ((x-1)*ny + y - 1) * nz
		rm := (x*ny + y - 1) * nz // y-1 row
		return float64(r[pm+z]) + float64(r[rm+z]) + float64(r[base+z-1]) -
			float64(r[qm+z]) - float64(r[pm+z-1]) - float64(r[rm+z-1]) +
			float64(r[qm+z-1])
	case x > 0 && y > 0:
		pm := ((x-1)*ny + y) * nz
		qm := ((x-1)*ny + y - 1) * nz
		rm := (x*ny + y - 1) * nz
		return float64(r[pm+z]) + float64(r[rm+z]) - float64(r[qm+z])
	case x > 0 && z > 0:
		pm := ((x-1)*ny + y) * nz
		return float64(r[pm+z]) + float64(r[base+z-1]) - float64(r[pm+z-1])
	case y > 0 && z > 0:
		rm := (x*ny + y - 1) * nz
		return float64(r[rm+z]) + float64(r[base+z-1]) - float64(r[rm+z-1])
	case x > 0:
		return float64(r[((x-1)*ny+y)*nz+z])
	case y > 0:
		return float64(r[(x*ny+y-1)*nz+z])
	case z > 0:
		return float64(r[base+z-1])
	default:
		return 0
	}
}

// pred3 is lorenzo's 7-point stencil at z of a row in plane x > 0, row
// y > 0: p is the same row of plane x-1, pu the row above it, u the row
// above in this plane, and prev the row's own sample at z-1. The terms are
// summed in lorenzo's order, so the rounding is the same.
func pred3[T core.Float](p, pu, u []T, prev T, z int) float64 {
	return float64(p[z]) + float64(u[z]) + float64(prev) -
		float64(pu[z]) - float64(p[z-1]) - float64(u[z-1]) +
		float64(pu[z-1])
}

// pred2 is lorenzo's 3-point stencil at z of a row y > 0 in plane 0.
func pred2[T core.Float](u []T, prev T, z int) float64 {
	return float64(u[z]) + float64(prev) - float64(u[z-1])
}

// quantizer is SZ's linear-scaling quantiser under an absolute bound eb:
// codes 1..2·radius-1 stand for multiples of 2·eb, code 0 for an outlier.
type quantizer[T core.Float] struct {
	eb, twoEb float64
	radius    int64
}

// encode returns the code for v predicted as pred and the value the decoder
// will rebuild from it: v itself when the code is 0 (an outlier, stored
// verbatim).
func (q quantizer[T]) encode(pred float64, v T) (uint32, T) {
	fv := float64(v)
	// k stays a float64: for every k inside the radius float64(int64(k)) is
	// k itself, and outside it (NaN and ±Inf included) both forms fail the
	// range test, so the int64 round trip is left off the chain that runs
	// from one sample to the next.
	k := math.Floor((fv-pred)/q.twoEb + 0.5)
	if r := float64(q.radius); k > -r && k < r {
		dec := T(pred + k*q.twoEb)
		if d := float64(dec) - fv; d <= q.eb && d >= -q.eb {
			return uint32(int64(k) + q.radius), dec
		}
	}
	return 0, v
}

// decode rebuilds the value code stands for around pred; an outlier (code
// 0) keeps have, the value already scattered there.
func (q quantizer[T]) decode(code uint32, pred float64, have T) T {
	if code == 0 {
		return have
	}
	return T(pred + float64(int64(code)-q.radius)*q.twoEb)
}

// lanes is how many rows of a plane the sweeps carry at once.
const lanes = 4

// slab is one slice of a field in C order: the reconstruction r, the codes
// c and, when encoding, the input v (nil when decoding).
type slab[T core.Float] struct {
	v, r []T
	c    []uint32
	q    quantizer[T]
}

// shape is a slab's extents. It travels apart from the slab: its values
// come from core.Geometry, while a decoder's slab holds stream contents.
type shape struct{ nx, ny, nz int }

// sweep predicts every sample from its reconstructed neighbours and
// quantises it (encoding) or rebuilds it from its code (decoding).
//
// Each sample waits on its left neighbour, so one row is one dependency
// chain of divide, round and convert latencies. A row reads only the row
// above it (at z and z-1) and the plane before, so rows y..y+3 run as four
// chains side by side with row y+k lagging k samples: at step t row y+k is
// at z = t-k, whose neighbours above were written one step earlier. Row 0
// of each plane, the rows past the last full group, and the first and last
// lanes-1 steps of a group (where a row is at z = 0 or outside the row) take
// the per-sample lorenzo path. Every sample is computed by the same float64
// expression either way; only the order in which independent samples are
// visited changes.
func (s *slab[T]) sweep(g shape) {
	for x := 0; x < g.nx; x++ {
		s.edge(g, x, 0, 0, g.nz)
		y := 1
		for ; y+lanes <= g.ny; y += lanes {
			s.skew(g, x, y, 0, lanes)
			if g.nz > lanes {
				if s.v != nil {
					s.encodeGroup(g, x, y)
				} else {
					s.decodeGroup(g, x, y)
				}
			}
			s.skew(g, x, y, max(lanes, g.nz), g.nz+lanes-1)
		}
		for ; y < g.ny; y++ {
			s.edge(g, x, y, 0, g.nz)
		}
	}
}

// skew runs steps [t0, t1) of the group at row y on the per-sample path.
func (s *slab[T]) skew(g shape, x, y, t0, t1 int) {
	for t := t0; t < t1; t++ {
		for k := range lanes {
			if z := t - k; z >= 0 && z < g.nz {
				s.edge(g, x, y+k, z, z+1)
			}
		}
	}
}

// edge runs samples [z0, z1) of row y of plane x on the per-sample path.
func (s *slab[T]) edge(g shape, x, y, z0, z1 int) {
	v, r, c, q, ny, nz := s.v, s.r, s.c, s.q, g.ny, g.nz
	base := (x*ny + y) * nz
	for i := base + z0; i < base+z1; i++ {
		if v == nil {
			if c[i] != 0 {
				r[i] = q.decode(c[i], lorenzo(r, x, y, i-base, ny, nz), r[i])
			}
			continue
		}
		c[i], r[i] = q.encode(lorenzo(r, x, y, i-base, ny, nz), v[i])
	}
}

// rows returns row y-1 and rows y..y+3 of plane x of b, each nz long.
func rows[T any](b []T, g shape, x, y int) (u, r0, r1, r2, r3 []T) {
	nz := g.nz
	i := (x*g.ny + y) * nz
	return b[i-nz:][:nz:nz], b[i:][:nz:nz], b[i+nz:][:nz:nz], b[i+2*nz:][:nz:nz], b[i+3*nz:][:nz:nz]
}

// encodeGroup runs the steps of the group at row y >= 1 of plane x in which
// all four rows are at z >= 1: row y+k at z-k for z in [lanes, nz).
func (s *slab[T]) encodeGroup(g shape, x, y int) {
	nz, q := g.nz, s.q
	u, r0, r1, r2, r3 := rows(s.r, g, x, y)
	_, v0, v1, v2, v3 := rows(s.v, g, x, y)
	_, c0, c1, c2, c3 := rows(s.c, g, x, y)
	// Each row's last sample written by the steps before.
	a0, a1, a2, a3 := r0[lanes-1], r1[lanes-2], r2[lanes-3], r3[lanes-4]
	if x == 0 {
		for z := lanes; z < nz; z++ {
			c0[z], a0 = q.encode(pred2(u, a0, z), v0[z])
			r0[z] = a0
			c1[z-1], a1 = q.encode(pred2(r0, a1, z-1), v1[z-1])
			r1[z-1] = a1
			c2[z-2], a2 = q.encode(pred2(r1, a2, z-2), v2[z-2])
			r2[z-2] = a2
			c3[z-3], a3 = q.encode(pred2(r2, a3, z-3), v3[z-3])
			r3[z-3] = a3
		}
		return
	}
	pu, p0, p1, p2, p3 := rows(s.r, g, x-1, y)
	for z := lanes; z < nz; z++ {
		c0[z], a0 = q.encode(pred3(p0, pu, u, a0, z), v0[z])
		r0[z] = a0
		c1[z-1], a1 = q.encode(pred3(p1, p0, r0, a1, z-1), v1[z-1])
		r1[z-1] = a1
		c2[z-2], a2 = q.encode(pred3(p2, p1, r1, a2, z-2), v2[z-2])
		r2[z-2] = a2
		c3[z-3], a3 = q.encode(pred3(p3, p2, r2, a3, z-3), v3[z-3])
		r3[z-3] = a3
	}
}

// decodeGroup is encodeGroup's reconstruct sweep: the same steps, reading
// codes and leaving the scattered outliers (code 0) where they are.
func (s *slab[T]) decodeGroup(g shape, x, y int) {
	nz, q := g.nz, s.q
	u, r0, r1, r2, r3 := rows(s.r, g, x, y)
	_, c0, c1, c2, c3 := rows(s.c, g, x, y)
	a0, a1, a2, a3 := r0[lanes-1], r1[lanes-2], r2[lanes-3], r3[lanes-4]
	if x == 0 {
		for z := lanes; z < nz; z++ {
			a0 = q.decode(c0[z], pred2(u, a0, z), r0[z])
			r0[z] = a0
			a1 = q.decode(c1[z-1], pred2(r0, a1, z-1), r1[z-1])
			r1[z-1] = a1
			a2 = q.decode(c2[z-2], pred2(r1, a2, z-2), r2[z-2])
			r2[z-2] = a2
			a3 = q.decode(c3[z-3], pred2(r2, a3, z-3), r3[z-3])
			r3[z-3] = a3
		}
		return
	}
	pu, p0, p1, p2, p3 := rows(s.r, g, x-1, y)
	for z := lanes; z < nz; z++ {
		a0 = q.decode(c0[z], pred3(p0, pu, u, a0, z), r0[z])
		r0[z] = a0
		a1 = q.decode(c1[z-1], pred3(p1, p0, r0, a1, z-1), r1[z-1])
		r1[z-1] = a1
		a2 = q.decode(c2[z-2], pred3(p2, p1, r1, a2, z-2), r2[z-2])
		r2[z-2] = a2
		a3 = q.decode(c3[z-3], pred3(p3, p2, r2, a3, z-3), r3[z-3])
		r3[z-3] = a3
	}
}
