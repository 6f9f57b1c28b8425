// Package sdrbench generates synthetic stand-ins for the SDRBench
// scientific datasets the paper's evaluation uses (Hurricane-CLOUD,
// ScaleLetKF, NYX, HACC). Real SDRBench data is not redistributable inside
// this repository, so each generator reproduces the statistical character
// that drives error-bounded lossy compressor behaviour — smoothness,
// anisotropy, value range, sparsity — rather than the exact bytes; the
// substitution is recorded in DESIGN.md. All generators are deterministic
// in their seed.
package sdrbench

import (
	"math"
	"math/rand"

	"pressio/internal/core"
)

// Field names the generators support, mirroring the datasets of §VI.
const (
	NameHurricane  = "hurricane-CLOUD"
	NameScaleLetKF = "scale-letkf"
	NameNYX        = "nyx-density"
	NameHACC       = "hacc-x"
)

// blob is a Gaussian bump used to synthesize smooth fields.
type blob struct {
	cx, cy, cz float64
	amp        float64
	invR2      float64
}

func makeBlobs(rng *rand.Rand, n int, ampScale float64) []blob {
	blobs := make([]blob, n)
	for i := range blobs {
		r := 0.05 + 0.25*rng.Float64() // radius as a fraction of the domain
		blobs[i] = blob{
			cx: rng.Float64(), cy: rng.Float64(), cz: rng.Float64(),
			amp:   ampScale * (0.2 + rng.Float64()),
			invR2: 1 / (r * r),
		}
	}
	return blobs
}

func evalBlobs(blobs []blob, x, y, z float64) float64 {
	v := 0.0
	for _, b := range blobs {
		dx, dy, dz := x-b.cx, y-b.cy, z-b.cz
		v += b.amp * math.Exp(-(dx*dx+dy*dy+dz*dz)*b.invR2)
	}
	return v
}

// HurricaneCloud synthesizes a CLOUD-like 3-D moisture field: mostly
// near-zero with smooth positive cloud structures, strong anisotropy
// (smooth horizontally, banded vertically) — the field used in the paper's
// dimension-ordering measurement.
func HurricaneCloud(nz, ny, nx int, seed int64) *core.Data {
	rng := rand.New(rand.NewSource(seed))
	// Cloud cells several voxels across: wide enough that the field is
	// smooth in all three dimensions (what spatial predictors exploit),
	// compact enough that most of the domain stays clear.
	blobs := make([]blob, 14)
	for i := range blobs {
		r := 0.10 + 0.15*rng.Float64()
		blobs[i] = blob{
			cx: rng.Float64(), cy: rng.Float64(), cz: rng.Float64(),
			amp:   2e-3 * (0.3 + rng.Float64()),
			invR2: 1 / (r * r),
		}
	}
	const cutoff = 2e-4
	vals := make([]float32, nz*ny*nx)
	i := 0
	for z := 0; z < nz; z++ {
		fz := float64(z) / float64(max(nz-1, 1))
		// Vertical banding: clouds concentrate at some altitudes.
		band := math.Exp(-8 * (fz - 0.35) * (fz - 0.35))
		for y := 0; y < ny; y++ {
			fy := float64(y) / float64(max(ny-1, 1))
			for x := 0; x < nx; x++ {
				fx := float64(x) / float64(max(nx-1, 1))
				v := band*evalBlobs(blobs, fx, fy, fz) - cutoff
				if v < 0 {
					v = 0
				}
				vals[i] = float32(v)
				i++
			}
		}
	}
	return core.FromFloat32s(vals, uint64(nz), uint64(ny), uint64(nx))
}

// ScaleLetKF synthesizes an ensemble-weather-model state: a large smooth
// pressure-like field with small correlated perturbations.
func ScaleLetKF(nz, ny, nx int, seed int64) *core.Data {
	rng := rand.New(rand.NewSource(seed))
	blobs := makeBlobs(rng, 16, 500)
	vals := make([]float32, nz*ny*nx)
	i := 0
	for z := 0; z < nz; z++ {
		fz := float64(z) / float64(max(nz-1, 1))
		base := 101325 * math.Exp(-fz) // pressure falls with altitude
		for y := 0; y < ny; y++ {
			fy := float64(y) / float64(max(ny-1, 1))
			for x := 0; x < nx; x++ {
				fx := float64(x) / float64(max(nx-1, 1))
				v := base + evalBlobs(blobs, fx, fy, fz) + 0.05*rng.NormFloat64()
				vals[i] = float32(v)
				i++
			}
		}
	}
	return core.FromFloat32s(vals, uint64(nz), uint64(ny), uint64(nx))
}

// NYXDensity synthesizes a cosmology baryon-density-like field: log-normal
// with a large dynamic range and filament-ish concentration.
func NYXDensity(nz, ny, nx int, seed int64) *core.Data {
	rng := rand.New(rand.NewSource(seed))
	blobs := makeBlobs(rng, 40, 2.5)
	vals := make([]float32, nz*ny*nx)
	i := 0
	for z := 0; z < nz; z++ {
		fz := float64(z) / float64(max(nz-1, 1))
		for y := 0; y < ny; y++ {
			fy := float64(y) / float64(max(ny-1, 1))
			for x := 0; x < nx; x++ {
				fx := float64(x) / float64(max(nx-1, 1))
				g := evalBlobs(blobs, fx, fy, fz) - 1.2
				vals[i] = float32(math.Exp(g) * (1 + 0.01*rng.NormFloat64()))
				i++
			}
		}
	}
	return core.FromFloat32s(vals, uint64(nz), uint64(ny), uint64(nx))
}

// HACCParticles synthesizes a cosmology particle coordinate stream (the
// HACC "x" buffer): a 1-D float32 array of positions clustered into halos,
// which is hard for spatial predictors — matching HACC's low
// compressibility in practice.
func HACCParticles(n int, seed int64) *core.Data {
	rng := rand.New(rand.NewSource(seed))
	vals := make([]float32, n)
	// Halo centers across a 256 Mpc box.
	nHalos := max(n/4096, 4)
	centers := make([]float64, nHalos)
	for i := range centers {
		centers[i] = rng.Float64() * 256
	}
	for i := range vals {
		c := centers[rng.Intn(nHalos)]
		vals[i] = float32(c + rng.NormFloat64()*2.5)
	}
	return core.FromFloat32s(vals, uint64(n))
}

// Generate returns the named dataset at the given scale (a multiplier on
// each spatial extent: scale 1 is a small test size).
func Generate(name string, scale int, seed int64) (*core.Data, bool) {
	if scale < 1 {
		scale = 1
	}
	switch name {
	case NameHurricane:
		return HurricaneCloud(16*scale, 32*scale, 32*scale, seed), true
	case NameScaleLetKF:
		return ScaleLetKF(8*scale, 32*scale, 32*scale, seed), true
	case NameNYX:
		return NYXDensity(16*scale, 16*scale, 16*scale, seed), true
	case NameHACC:
		return HACCParticles(64*1024*scale, seed), true
	default:
		return nil, false
	}
}

// Names lists the supported synthetic datasets.
func Names() []string {
	return []string{NameHurricane, NameScaleLetKF, NameNYX, NameHACC}
}
