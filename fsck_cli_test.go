// CLI contract tests for pressio-fsck: scripts (and the store smoke test)
// depend on its exit codes, so they are pinned here across a real process
// boundary — 0 clean, 1 problems found, 2 usage or operational error.
package pressio

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"testing"

	"pressio/internal/core"
	"pressio/internal/store"
)

func runFsck(t *testing.T, args ...string) (int, string) {
	t.Helper()
	out, err := exec.Command(buildCmd(t, "pressio-fsck"), args...).CombinedOutput()
	if err == nil {
		return 0, string(out)
	}
	var exitErr *exec.ExitError
	if !errors.As(err, &exitErr) {
		t.Fatalf("pressio-fsck did not run: %v\n%s", err, out)
	}
	return exitErr.ExitCode(), string(out)
}

func TestFsckCLIExitCodes(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a binary")
	}
	dir := t.TempDir()

	// Build a small store: one uncompressed object whose payload bytes are
	// recognizable on disk.
	s, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	vals := make([]float64, 32)
	for i := range vals {
		vals[i] = float64(i) + 0.25
	}
	data := core.FromFloat64s(vals, uint64(len(vals)))
	info, err := s.Put("cli/victim", data, store.PutOptions{ChunkRows: 8})
	if err != nil {
		t.Fatal(err)
	}
	// Checkpoint so the journaled payloads are gone: later damage is then
	// not rebuildable and repair must quarantine rather than restore.
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Exit 0: a clean store, and -json emits a parseable typed report.
	code, out := runFsck(t, "-json", dir)
	if code != 0 {
		t.Fatalf("clean store: exit %d\n%s", code, out)
	}
	var rep store.FsckReport
	if err := json.Unmarshal([]byte(out), &rep); err != nil {
		t.Fatalf("-json output not a FsckReport: %v\n%s", err, out)
	}
	if rep.Objects != 1 || len(rep.CorruptChunks) != 0 {
		t.Fatalf("clean report: %+v", rep)
	}

	// Exit 2: usage error (no directory) and operational error (not a dir).
	if code, _ := runFsck(t); code != 2 {
		t.Fatalf("no args: exit %d, want 2", code)
	}
	if code, _ := runFsck(t, filepath.Join(dir, "no/such/store")); code != 2 {
		t.Fatalf("missing dir: exit %d, want 2", code)
	}

	// Exit 1: flip one payload byte (the object is uncompressed, so its raw
	// bytes appear verbatim in the segment) and check mode must object.
	segPath := filepath.Join(dir, "objects", info.Segment)
	disk, err := os.ReadFile(segPath)
	if err != nil {
		t.Fatal(err)
	}
	off := bytes.Index(disk, data.Bytes()[:64])
	if off < 0 {
		t.Fatal("payload bytes not found in segment")
	}
	disk[off+3] ^= 0x10
	if err := os.WriteFile(segPath, disk, 0o644); err != nil {
		t.Fatal(err)
	}
	code, out = runFsck(t, dir)
	if code != 1 {
		t.Fatalf("corrupt store: exit %d\n%s", code, out)
	}

	// Repair quarantines the damage and leaves a consistent store: exit 0,
	// and a follow-up check agrees.
	code, out = runFsck(t, "-repair", dir)
	if code != 0 {
		t.Fatalf("repair: exit %d\n%s", code, out)
	}
	code, out = runFsck(t, "-json", dir)
	if code != 0 {
		t.Fatalf("post-repair check: exit %d\n%s", code, out)
	}
	if err := json.Unmarshal([]byte(out), &rep); err != nil {
		t.Fatal(err)
	}
	if rep.AlreadyQuarantined != 1 {
		t.Fatalf("post-repair report should show 1 quarantined chunk: %+v", rep)
	}
}
