package store

// Register the compressor plugins the tests exercise as chunk filters.
import (
	_ "pressio/internal/lossless"
	_ "pressio/internal/zfp"
)
