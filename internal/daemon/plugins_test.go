package daemon

// The daemon package is plugin-agnostic; the tests exercise real compressor
// stacks, so register the plugins they name (cmd/pressiod registers the full
// library the same way).
import (
	_ "pressio/internal/faultinject"
	_ "pressio/internal/lossless"
	_ "pressio/internal/meta"
	_ "pressio/internal/opt"
	_ "pressio/internal/resilience"
	_ "pressio/internal/sz"
)
