package store

// The crash campaign: the store's durability argument, executed.
//
// Two matrices cover every declared filesystem crash point (enumerated via
// fsx.FSPoints(), so a new point added anywhere in the dependency graph
// fails these tests until it gets a matrix entry):
//
//   - TestCrashPointsFailMode injects FSModeFail at each point in-process:
//     the operation aborts exactly where a crash would, the store reopens,
//     and the per-point outcome (acknowledged data present byte-exact,
//     unacknowledged data fully present or fully absent) is asserted.
//
//   - TestCrashMatrixHardStop re-execs the test binary as a child pointed at
//     a store directory, arms FSModeExit via PRESSIO_FS_CRASH, and lets the
//     child die mid-PUT-load with os.Exit — no deferred cleanup, the
//     SIGKILL equivalent. The child appends to a durable ack log after each
//     acknowledged write. The parent kills the child twice (the second run
//     crashes during or after recovery of the first crash), then reopens and
//     proves: check-mode fsck predicted the reopen's recovery, every
//     acknowledged write present byte-exact, deletes honored, zero phantom
//     objects, and fsck clean after a checkpoint.

import (
	"errors"
	"fmt"
	"hash/fnv"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"pressio/internal/core"
	"pressio/internal/fsx"
)

const (
	envCrashDir = "PRESSIO_STORE_CRASH_DIR"
	envCrashAck = "PRESSIO_STORE_CRASH_ACK"
	envCrashRun = "PRESSIO_STORE_CRASH_RUN"
)

func TestMain(m *testing.M) {
	if os.Getenv(envCrashDir) != "" {
		os.Exit(storeCrashChild())
	}
	os.Exit(m.Run())
}

// childData derives a deterministic dataset from (name, run) so the parent
// can recompute exactly what any child wrote and compare byte-for-byte.
func childData(name, run string) *core.Data {
	h := fnv.New64a()
	h.Write([]byte(name + "/" + run))
	seed := h.Sum64()
	vals := make([]float64, 96)
	for i := range vals {
		seed += 0x9e3779b97f4a7c15
		z := seed
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		z ^= z >> 31
		vals[i] = float64(z%4096) / 8
	}
	return core.FromFloat64s(vals, uint64(len(vals)))
}

// crashOp is one state-changing operation of the child workload.
type crashOp struct {
	kind string // "put" or "del"
	name string
	run  string
}

// crashSchedule is the child's deterministic workload for one run: ten puts
// with a delete and two checkpoints interleaved (checkpoints change no
// object state and are not ack'd). Parent and child share this function —
// it is how the parent knows which single operation can be in flight at the
// moment of any crash.
func crashSchedule(run string) []crashOp {
	var ops []crashOp
	for i := 0; i < 10; i++ {
		ops = append(ops, crashOp{kind: "put", name: fmt.Sprintf("obj-%02d", i), run: run})
		if i == 4 {
			ops = append(ops, crashOp{kind: "del", name: "obj-01", run: run})
		}
	}
	return ops
}

// storeCrashChild is the re-exec entry point: arm the fault from the
// environment, open the store, run the workload, ack each acknowledged write
// durably. Exit 0 means the armed point never fired this run.
func storeCrashChild() int {
	fail := func(code int, err error) int {
		fmt.Fprintf(os.Stderr, "crash child: %v\n", err)
		return code
	}
	if _, err := fsx.ArmFSFromEnv(); err != nil {
		return fail(2, err)
	}
	run := os.Getenv(envCrashRun)
	ack, err := os.OpenFile(os.Getenv(envCrashAck), os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return fail(2, err)
	}
	s, err := Open(os.Getenv(envCrashDir), Options{CheckpointBytes: -1})
	if err != nil {
		return fail(3, err)
	}
	acked := func(op crashOp) error {
		if _, err := fmt.Fprintf(ack, "%s %s %s\n", op.kind, op.name, op.run); err != nil {
			return err
		}
		return ack.Sync()
	}
	i := 0
	for _, op := range crashSchedule(run) {
		switch op.kind {
		case "put":
			if _, err := s.Put(op.name, childData(op.name, run), PutOptions{Filter: "flate", ChunkRows: 7}); err != nil {
				return fail(4, err)
			}
		case "del":
			if err := s.Delete(op.name); err != nil {
				return fail(4, err)
			}
		}
		if err := acked(op); err != nil {
			return fail(2, err)
		}
		if op.kind == "put" {
			if i == 3 || i == 7 {
				if err := s.Checkpoint(); err != nil {
					return fail(4, err)
				}
			}
			i++
		}
	}
	if err := s.Close(); err != nil {
		return fail(4, err)
	}
	return 0
}

// runCrashChild re-execs the test binary as a crash child and returns its
// exit code (0 = workload completed, fsx.FSExitCode = armed point fired).
func runCrashChild(t *testing.T, dir, ackPath, run, point string, after int) int {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run=^$")
	cmd.Env = append(os.Environ(),
		envCrashDir+"="+dir,
		envCrashAck+"="+ackPath,
		envCrashRun+"="+run,
		fsx.EnvFSCrash+"="+fmt.Sprintf("%s:%s:%d", point, fsx.FSModeExit, after),
	)
	out, err := cmd.CombinedOutput()
	if err == nil {
		return 0
	}
	var exitErr *exec.ExitError
	if !errors.As(err, &exitErr) {
		t.Fatalf("child failed to run: %v\n%s", err, out)
	}
	code := exitErr.ExitCode()
	if code != fsx.FSExitCode {
		t.Fatalf("child exited %d (want 0 or %d) at %s after=%d:\n%s", code, fsx.FSExitCode, point, after, out)
	}
	return code
}

// foldOps applies a sequence of operations to an object→run-version map.
func foldOps(ops []crashOp) map[string]string {
	m := map[string]string{}
	for _, op := range ops {
		if op.kind == "del" {
			delete(m, op.name)
		} else {
			m[op.name] = op.run
		}
	}
	return m
}

// crashCandidates enumerates every legal final state: the acknowledged
// history, with each crashed run's single possibly-in-flight operation
// either applied or not (applied-in-order — run 1's straggler lands before
// run 2's acknowledged writes replay over it).
func crashCandidates(acked []crashOp) []map[string]string {
	byRun := map[string][]crashOp{}
	for _, op := range acked {
		byRun[op.run] = append(byRun[op.run], op)
	}
	inflight := map[string]*crashOp{}
	for _, run := range []string{"1", "2"} {
		sched := crashSchedule(run)
		if n := len(byRun[run]); n < len(sched) {
			op := sched[n]
			inflight[run] = &op
		}
	}
	var out []map[string]string
	for b1 := 0; b1 < 2; b1++ {
		for b2 := 0; b2 < 2; b2++ {
			var seq []crashOp
			seq = append(seq, byRun["1"]...)
			if b1 == 1 && inflight["1"] != nil {
				seq = append(seq, *inflight["1"])
			}
			seq = append(seq, byRun["2"]...)
			if b2 == 1 && inflight["2"] != nil {
				seq = append(seq, *inflight["2"])
			}
			out = append(out, foldOps(seq))
		}
	}
	return out
}

func sameState(a, b map[string]string) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

// TestCrashMatrixHardStop is the multi-process proof. For every declared
// crash point and two After offsets (first hit, and mid-load on the third),
// a child is hard-stopped twice — the second crash lands during or after
// recovery of the first — and the surviving directory must contain exactly
// one of the legal states: no acknowledged write lost, no phantom objects,
// every payload byte-exact, fsck clean after checkpoint.
func TestCrashMatrixHardStop(t *testing.T) {
	points := fsx.FSPoints()
	if len(points) < 10 {
		t.Fatalf("expected at least 10 declared crash points, have %v", points)
	}
	for _, point := range points {
		// Mid-load offset: the put-path points hit once per put, so skipping
		// two hits crashes the third write; the checkpoint-path points hit
		// only twice per run, so skip one and crash the second checkpoint.
		afterMid := 2
		if point == PointManifest || point == PointJournalTrunc {
			afterMid = 1
		}
		for _, after := range []int{0, afterMid} {
			point, after := point, after
			t.Run(fmt.Sprintf("%s/after=%d", point, after), func(t *testing.T) {
				t.Parallel()
				dir := t.TempDir()
				ackPath := filepath.Join(dir, "acked.log") // outside the store dir
				storeDir := filepath.Join(dir, "store")

				fired := 0
				for _, run := range []string{"1", "2"} {
					if runCrashChild(t, storeDir, ackPath, run, point, after) == fsx.FSExitCode {
						fired++
					}
				}
				if fired == 0 {
					t.Fatalf("point %s after=%d never fired: no crash coverage", point, after)
				}

				// Parse the durable ack history.
				var acked []crashOp
				if raw, err := os.ReadFile(ackPath); err == nil {
					for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
						if line == "" {
							continue
						}
						f := strings.Fields(line)
						if len(f) != 3 {
							t.Fatalf("malformed ack line %q", line)
						}
						acked = append(acked, crashOp{kind: f[0], name: f[1], run: f[2]})
					}
				}

				// Check-mode fsck predicts the reopen: it reads the directory
				// through the same fold recovery acts on.
				pred, err := Fsck(storeDir, FsckOptions{})
				if err != nil {
					t.Fatal(err)
				}
				st, err := readState(storeDir)
				if err != nil {
					t.Fatal(err)
				}
				reachable := map[string]bool{}
				for name := range st.objects {
					reachable[name] = true
				}
				for _, name := range pred.MissingSegments {
					delete(reachable, name)
				}

				// Reopen: recovery must land on a legal state.
				s, err := Open(storeDir, Options{CheckpointBytes: -1})
				if err != nil {
					t.Fatalf("reopen after crashes: %v", err)
				}
				rec := s.Recovery()
				if rec.TornTailBytes != pred.TornTailBytes || rec.SegmentsRebuilt != len(pred.RebuildableSegments) {
					t.Fatalf("fsck predicted torn tail %d and rebuilds %v; recovery did %+v",
						pred.TornTailBytes, pred.RebuildableSegments, rec)
				}
				listed := s.List()
				if len(listed) != len(reachable) {
					t.Fatalf("fsck reached %v, recovery lists %v", reachable, listed)
				}
				for _, info := range listed {
					if !reachable[info.Name] {
						t.Fatalf("recovery lists %q, which fsck did not reach (%v)", info.Name, reachable)
					}
				}
				got := map[string]string{}
				for _, info := range s.List() {
					if !strings.HasPrefix(info.Name, "obj-") {
						t.Fatalf("phantom object %q", info.Name)
					}
					d, _, err := s.Get(info.Name)
					if err != nil {
						t.Fatalf("get %q after recovery: %v", info.Name, err)
					}
					version := ""
					for _, run := range []string{"1", "2"} {
						if d.Equal(childData(info.Name, run)) {
							version = run
						}
					}
					if version == "" {
						t.Fatalf("object %q has bytes matching no version ever written", info.Name)
					}
					got[info.Name] = version
				}
				legal := false
				for _, cand := range crashCandidates(acked) {
					if sameState(got, cand) {
						legal = true
						break
					}
				}
				if !legal {
					t.Fatalf("recovered state %v matches no legal candidate (acks: %v)", got, acked)
				}

				// Checkpoint collects crash debris (orphan segments); after
				// that, fsck must have nothing left to say.
				if err := s.Checkpoint(); err != nil {
					t.Fatalf("checkpoint after recovery: %v", err)
				}
				if err := s.Close(); err != nil {
					t.Fatal(err)
				}
				rep, err := Fsck(storeDir, FsckOptions{})
				if err != nil {
					t.Fatal(err)
				}
				if !rep.Clean() {
					t.Fatalf("fsck after recovery+checkpoint: %v", rep.Problems())
				}
			})
		}
	}
}

// TestCrashPointsFailMode drives every declared point in-process with
// FSModeFail: the mutation reports the injected crash, and after a reopen
// the per-point contract holds. Where the outcome is decided (present or
// absent), the reopened table is the live one the failed put left. The
// table must name every declared point — a new crash point fails this test
// until its expected outcome is written down here.
func TestCrashPointsFailMode(t *testing.T) {
	// What the unacknowledged write "w1" must look like after reopen:
	//   absent     — the crash preceded the commit fsync; the write never
	//                happened. The segment is written before the record, so
	//                its save and the four atomic-write points are here.
	//   present    — the crash followed the commit; recovery must finish
	//                what the put began.
	//   either     — the crash hit the commit fsync itself; the record may or
	//                may not have reached the device, but never partially
	//                (torn tails are truncated).
	//   checkpoint — the point is on the checkpoint path, not the put path:
	//                the put is acknowledged, then Checkpoint reports the
	//                crash, and nothing may be lost.
	expect := map[string]string{
		PointJournalTorn:  "absent",
		PointJournalWrite: "absent",
		PointJournalFsync: "either",
		PointSegmentSave:  "absent",
		fsx.PointWrite:    "absent",
		fsx.PointFsync:    "absent",
		fsx.PointRename:   "absent",
		fsx.PointDirSync:  "absent",
		PointManifest:     "checkpoint",
		PointJournalTrunc: "checkpoint",
	}
	points := fsx.FSPoints()
	for _, p := range points {
		if _, ok := expect[p]; !ok {
			t.Fatalf("declared crash point %q has no fail-mode matrix entry", p)
		}
	}

	for _, point := range points {
		t.Run(point, func(t *testing.T) {
			defer fsx.DisarmFS()
			dir := t.TempDir()
			s, err := Open(dir, Options{CheckpointBytes: -1})
			if err != nil {
				t.Fatal(err)
			}
			keep := childData("keep", "0")
			mustPut(t, s, "keep", keep, PutOptions{Filter: "flate", ChunkRows: 7})

			if err := fsx.ArmFS(fsx.FSFault{Point: point, Mode: fsx.FSModeFail}); err != nil {
				t.Fatal(err)
			}
			w1 := childData("w1", "0")
			want := expect[point]
			if want == "checkpoint" {
				// Not on the put path: the put is acknowledged first.
				mustPut(t, s, "w1", w1, PutOptions{Filter: "flate", ChunkRows: 7})
				if err := s.Checkpoint(); !errors.Is(err, fsx.ErrFSCrash) {
					t.Fatalf("checkpoint with %s armed: %v", point, err)
				}
			} else {
				if _, err := s.Put("w1", w1, PutOptions{Filter: "flate", ChunkRows: 7}); !errors.Is(err, fsx.ErrFSCrash) {
					t.Fatalf("put with %s armed: %v", point, err)
				}
			}
			fsx.DisarmFS()
			// A record that reached the journal but not the live table, or
			// reached the table without its segment, takes the store out of
			// service until a reopen replays it, and no checkpoint may
			// truncate it first.
			if want == "present" || want == "either" {
				if s.Ready() {
					t.Fatalf("store still ready after a put failed at %s", point)
				}
				if err := s.Checkpoint(); !errors.Is(err, errJournalBroken) {
					t.Fatalf("checkpoint after a put failed at %s: %v", point, err)
				}
			}
			live := liveTable(t, s)
			_ = s.Close() // a broken journal may refuse a clean close; reopen decides

			r, err := Open(dir, Options{CheckpointBytes: -1})
			if err != nil {
				t.Fatalf("reopen after injected crash at %s: %v", point, err)
			}
			defer r.Close()
			if got := liveTable(t, r); (want == "present" || want == "absent") && got != live {
				t.Fatalf("crash at %s: reopened table differs from the live one:\n got %s\nwant %s", point, got, live)
			}
			if d, _, err := r.Get("keep"); err != nil || !d.Equal(keep) {
				t.Fatalf("acknowledged object lost after crash at %s: %v", point, err)
			}
			d, _, gerr := r.Get("w1")
			switch want {
			case "present", "checkpoint":
				if gerr != nil || !d.Equal(w1) {
					t.Fatalf("write must survive crash at %s: %v", point, gerr)
				}
			case "absent":
				if !errors.Is(gerr, ErrNotFound) {
					t.Fatalf("unacknowledged write visible after crash at %s: %v", point, gerr)
				}
			case "either":
				if gerr == nil {
					if !d.Equal(w1) {
						t.Fatalf("partially applied write after crash at %s", point)
					}
				} else if !errors.Is(gerr, ErrNotFound) {
					t.Fatalf("crash at %s left w1 in a third state: %v", point, gerr)
				}
			}
		})
	}
}
