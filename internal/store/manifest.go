package store

import (
	"encoding/json"
	"fmt"
	"os"

	"pressio/internal/fsx"
)

// The manifest is the checkpoint the journal is truncated against: a JSON
// snapshot of every live object plus the LSN low-water mark below which all
// records have been fully applied and published. Recovery loads it, then
// replays only journal records above LastLSN. It is always written through
// fsx.AtomicWriteFile, so a crashed checkpoint leaves the previous manifest
// generation intact.

// manifestVersion is the current manifest layout version.
const manifestVersion = 1

// maxManifestBytes bounds a manifest file read back from disk.
const maxManifestBytes = 64 << 20

// maxManifestObjects bounds the object count of a manifest.
const maxManifestObjects = 1 << 20

// PointManifest fires before a checkpoint publishes the manifest.
var PointManifest = fsx.RegisterFSPoint("store.checkpoint.manifest")

// manifestObject is one checkpointed object: its durable meta plus any
// quarantined chunk indices.
type manifestObject struct {
	Meta        ObjectMeta `json:"meta"`
	Quarantined []int      `json:"quarantined,omitempty"`
}

// manifest is the checkpoint file layout.
type manifest struct {
	Version int `json:"version"`
	// LastLSN is the low-water mark: every journal record with an LSN at or
	// below it is fully applied and its segment published, so replay skips
	// it. Records above it may or may not be reflected — replay re-applies
	// them idempotently.
	LastLSN uint64                    `json:"last_lsn"`
	Objects map[string]manifestObject `json:"objects"`
}

// loadManifest reads a checkpoint. A missing file is an empty manifest;
// anything else is parseManifest's verdict on the bytes.
func loadManifest(path string) (manifest, error) {
	raw, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return manifest{Version: manifestVersion}, nil
	}
	if err != nil {
		return manifest{}, err
	}
	return parseManifest(raw)
}

// parseManifest decodes and validates a checkpoint. Anything unparseable or
// out of bounds is an error wrapping core.ErrCorrupt, returned with an empty
// manifest (recovery quarantines the file and folds the journal over the
// empty one). The input is a file read back after an arbitrary crash, so
// every count and index in it is bounds-checked before use.
//
//pressio:untrusted
func parseManifest(raw []byte) (manifest, error) {
	if len(raw) > maxManifestBytes {
		return manifest{}, corrupt("manifest of %d bytes exceeds cap", len(raw))
	}
	var man manifest
	if err := json.Unmarshal(raw, &man); err != nil {
		return manifest{}, corrupt("manifest does not parse: %v", err)
	}
	if man.Version != manifestVersion {
		return manifest{}, corrupt("unsupported manifest version %d", man.Version)
	}
	if len(man.Objects) > maxManifestObjects {
		return manifest{}, corrupt("manifest object count %d exceeds cap", len(man.Objects))
	}
	for name, mo := range man.Objects {
		if name != mo.Meta.Name {
			return manifest{}, corrupt("manifest key %q names object %q", name, mo.Meta.Name)
		}
		if err := validateObjectMeta(&mo.Meta); err != nil {
			return manifest{}, fmt.Errorf("manifest object %q: %w", name, err)
		}
		if len(mo.Quarantined) > len(mo.Meta.Chunks) {
			return manifest{}, corrupt("manifest object %q quarantines %d of %d chunks",
				name, len(mo.Quarantined), len(mo.Meta.Chunks))
		}
		for _, idx := range mo.Quarantined {
			if idx < 0 || idx >= len(mo.Meta.Chunks) {
				return manifest{}, corrupt("manifest object %q quarantine index %d out of range", name, idx)
			}
		}
	}
	return man, nil
}

// saveManifest publishes a checkpoint crash-consistently.
func saveManifest(path string, man manifest) error {
	data, err := json.MarshalIndent(man, "", "  ")
	if err != nil {
		return err
	}
	return fsx.AtomicWriteFile(path, data, 0o644)
}
