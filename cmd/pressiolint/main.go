// Command pressiolint runs the project's static-analysis suite over the
// module, enforcing the plugin invariants the framework's uniform contract
// depends on: init-time registration, honest pressio:thread_safe
// declarations, handled hot-path errors, deterministic, embeddable codec
// packages, and decoders that bound what they read from untrusted streams.
//
// Usage:
//
//	go run ./cmd/pressiolint ./...            # whole module, human output
//	go run ./cmd/pressiolint -json ./internal/...
//	go run ./cmd/pressiolint -run forbidden,errcheck ./internal/sz
//	go run ./cmd/pressiolint -analyzers       # list the analyzers
//
// Diagnostics print as "file:line:col [analyzer] message" and the exit code
// is 0 (clean), 1 (findings) or 2 (usage/load error). Individual findings
// can be waived in source with `//lint:ignore <analyzer> <reason>` on or
// directly above the offending line. See docs/STATIC_ANALYSIS.md.
package main

import (
	"os"

	"pressio/internal/analysis"
)

func main() {
	os.Exit(analysis.Main(os.Args[1:], os.Stdout, os.Stderr))
}
