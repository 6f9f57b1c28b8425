package store

import "fmt"

// Fsck is the offline integrity verb behind cmd/pressio-fsck. Check mode is
// strictly read-only: it reads the directory through the same fold and
// verification pass recovery acts on (readState, verify), so it reports
// exactly what a repair would change. Repair mode makes those changes: it
// runs recovery (temp sweep, segment rebuild, orphan removal, torn-tail
// truncation), a full scrub pass (quarantining chunks that fail their CRC),
// and a checkpoint, then re-checks.

// FsckOptions configures a pass.
type FsckOptions struct {
	// Repair applies fixes instead of only reporting.
	Repair bool
}

// RepairSummary records what a repair pass did.
type RepairSummary struct {
	Recovery RecoveryStats `json:"recovery"`
	Scrub    ScrubReport   `json:"scrub"`
}

// FsckReport is the typed result of one fsck pass. With Repair set, the
// counts describe the directory state *after* the repair (Repaired holds
// what the repair did).
type FsckReport struct {
	Dir string `json:"dir"`
	// ManifestOK reports a present-and-valid (or validly absent) checkpoint.
	ManifestOK    bool   `json:"manifest_ok"`
	ManifestError string `json:"manifest_error,omitempty"`
	// JournalRecords / JournalSkipped count valid records and those below
	// the checkpoint low-water mark.
	JournalRecords int `json:"journal_records"`
	JournalSkipped int `json:"journal_skipped"`
	// TornTailBytes is the length of the unparseable journal tail.
	TornTailBytes int64 `json:"torn_tail_bytes"`
	// Objects / ChunksChecked count the reachable state verified.
	Objects       int `json:"objects"`
	ChunksChecked int `json:"chunks_checked"`
	// AlreadyQuarantined counts chunks recorded as quarantined (a consistent
	// condition, not a problem: the store knows the data is damaged).
	AlreadyQuarantined int `json:"already_quarantined"`
	// CorruptChunks lists reachable chunks failing their CRC and not yet
	// quarantined.
	CorruptChunks []ChunkRef `json:"corrupt_chunks,omitempty"`
	// MissingSegments lists objects whose container file is absent or
	// unreadable, with no journal payloads to rebuild it from (repair drops
	// them).
	MissingSegments []string `json:"missing_segments,omitempty"`
	// RebuildableSegments lists objects whose container is absent or wrong
	// but whose legacy put record's payloads can rebuild it (repair fixes
	// these losslessly).
	RebuildableSegments []string `json:"rebuildable_segments,omitempty"`
	// OrphanSegments lists container files no reachable object references.
	OrphanSegments []string `json:"orphan_segments,omitempty"`
	// TempFiles lists atomic-write leftovers.
	TempFiles []string `json:"temp_files,omitempty"`
	// Repaired is set in repair mode.
	Repaired *RepairSummary `json:"repaired,omitempty"`
}

// Problems lists the actionable findings, one human-readable line each. An
// empty list is a clean store.
func (r *FsckReport) Problems() []string {
	var out []string
	if !r.ManifestOK {
		out = append(out, fmt.Sprintf("manifest invalid: %s", r.ManifestError))
	}
	if r.TornTailBytes > 0 {
		out = append(out, fmt.Sprintf("journal has a torn tail of %d bytes", r.TornTailBytes))
	}
	for _, c := range r.CorruptChunks {
		out = append(out, fmt.Sprintf("object %q chunk %d (segment %s) fails its checksum", c.Object, c.Chunk, c.Segment))
	}
	for _, name := range r.RebuildableSegments {
		out = append(out, fmt.Sprintf("object %q segment is missing or wrong (rebuildable from journal)", name))
	}
	for _, name := range r.MissingSegments {
		out = append(out, fmt.Sprintf("object %q segment is missing and unrecoverable", name))
	}
	for _, seg := range r.OrphanSegments {
		out = append(out, fmt.Sprintf("segment %s is referenced by no object", seg))
	}
	for _, tmp := range r.TempFiles {
		out = append(out, fmt.Sprintf("unpublished temp file %s", tmp))
	}
	return out
}

// Clean reports a store with nothing for repair to do.
func (r *FsckReport) Clean() bool { return len(r.Problems()) == 0 }

// Fsck checks (and with o.Repair, repairs) the store directory, which must
// not be concurrently open.
func Fsck(dir string, o FsckOptions) (*FsckReport, error) {
	if !o.Repair {
		return fsckCheck(dir)
	}
	s, err := Open(dir, Options{CheckpointBytes: -1})
	if err != nil {
		return nil, err
	}
	summary := &RepairSummary{Recovery: s.Recovery()}
	summary.Scrub, err = s.ScrubOnce()
	if err == nil {
		err = s.Checkpoint()
	}
	if cerr := s.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	report, err := fsckCheck(dir)
	if err != nil {
		return nil, err
	}
	report.Repaired = summary
	return report, nil
}

// fsckCheck is the read-only pass: the directory read through the same
// fold and verification recovery acts on, reported instead of repaired.
func fsckCheck(dir string) (*FsckReport, error) {
	st, err := readState(dir)
	if err != nil {
		return nil, err
	}
	rep := &FsckReport{
		Dir:            dir,
		ManifestOK:     st.manErr == nil,
		JournalRecords: st.replayed,
		JournalSkipped: st.skipped,
		TornTailBytes:  int64(len(st.tail)),
		OrphanSegments: st.orphans,
		TempFiles:      st.temps,
	}
	if st.manErr != nil {
		rep.ManifestError = st.manErr.Error()
	}
	for _, v := range verify(dir, st.objects) {
		o := v.o
		rep.Objects++
		rep.AlreadyQuarantined += len(o.quarantined)
		if v.err == nil {
			rep.ChunksChecked += len(o.meta.Chunks) - len(o.quarantined)
		}
		switch {
		case !v.damaged():
		case o.payloads != nil:
			rep.RebuildableSegments = append(rep.RebuildableSegments, v.name)
		case v.err != nil:
			rep.MissingSegments = append(rep.MissingSegments, v.name)
		default:
			for _, i := range v.bad {
				rep.CorruptChunks = append(rep.CorruptChunks, ChunkRef{Object: v.name, Segment: o.meta.Segment, Chunk: i})
			}
		}
	}
	return rep, nil
}
