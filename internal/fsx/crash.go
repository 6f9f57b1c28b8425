package fsx

import (
	"errors"
	"fmt"
	"maps"
	"os"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"pressio/internal/trace"
)

// Filesystem-operation fault injection: the generalization of the crashPoint
// hook that used to live in internal/pio/atomic.go. Durable-storage code
// (internal/fsx, internal/store) declares *named crash points* at the
// filesystem operations whose ordering its crash-consistency argument
// depends on — write, fsync, rename, truncate — and the injector can arm
// exactly one of them to fire.
//
// Two modes:
//
//   - FSModeFail: FSCrash returns ErrFSCrash at the armed point. The calling
//     operation aborts exactly where a crash would, and in-process tests can
//     then reopen the state and assert recovery invariants.
//   - FSModeExit: the process hard-stops with os.Exit(FSExitCode) at the
//     armed point — no deferred cleanup, no atexit, nothing. This is the
//     SIGKILL-equivalent used by the store's multi-process crash matrix: a
//     child process is pointed at a store directory, armed via the
//     PRESSIO_FS_CRASH environment variable, and killed mid-operation; the
//     parent then reopens the directory and proves zero acknowledged-write
//     loss.
//
// Every declared point self-registers at init time, so crash campaigns can
// enumerate FSPoints() and prove coverage of all of them rather than a
// hand-maintained list.

// FS fault modes.
const (
	// FSModeFail makes FSCrash return ErrFSCrash at the armed point.
	FSModeFail = "fail"
	// FSModeExit makes FSCrash hard-stop the process at the armed point.
	FSModeExit = "exit"
)

// FSExitCode is the exit status of an FSModeExit hard stop (137 = the shell
// convention for SIGKILL).
const FSExitCode = 137

// EnvFSCrash is the environment variable ArmFSFromEnv reads:
// "point[:mode[:after]]", e.g. "store.journal.append.fsync:exit:3".
const EnvFSCrash = "PRESSIO_FS_CRASH"

// CtrFSCrashes counts filesystem faults fired (both modes; an exit-mode
// process usually dies before the scrape, but fail mode accumulates).
const CtrFSCrashes = "faultinject.fs.crashes"

// ErrFSCrash is the injected filesystem crash error (FSModeFail). It is
// deliberately NOT transient: retry loops must not absorb a simulated crash.
var ErrFSCrash = errors.New("faultinject: injected filesystem crash")

// FSFault is one armed filesystem fault.
type FSFault struct {
	// Point is the declared crash point name (see FSPoints).
	Point string
	// Mode is FSModeFail or FSModeExit (default FSModeFail).
	Mode string
	// After skips the first After hits of the point before firing, so a
	// campaign can crash mid-load rather than on the first operation.
	After int
}

type fsState struct {
	fault FSFault
	hits  atomic.Int64
}

var (
	fsMu     sync.Mutex
	fsPoints = map[string]bool{}
	fsArmed  atomic.Pointer[fsState]
)

// RegisterFSPoint declares a named filesystem crash point. Call it from an
// init function or var initializer next to the code that consults the point;
// registration is idempotent.
func RegisterFSPoint(name string) string {
	fsMu.Lock()
	fsPoints[name] = true
	fsMu.Unlock()
	return name
}

// FSPoints lists every declared crash point, sorted — the enumeration a
// crash matrix iterates.
func FSPoints() []string {
	fsMu.Lock()
	defer fsMu.Unlock()
	return slices.Sorted(maps.Keys(fsPoints))
}

// ArmFS arms one filesystem fault. Only one fault is armed at a time; arming
// replaces any previous fault. The point must have been declared.
func ArmFS(f FSFault) error {
	if f.Mode == "" {
		f.Mode = FSModeFail
	}
	if f.Mode != FSModeFail && f.Mode != FSModeExit {
		return fmt.Errorf("faultinject: unknown fs fault mode %q", f.Mode)
	}
	fsMu.Lock()
	known := fsPoints[f.Point]
	fsMu.Unlock()
	if !known {
		return fmt.Errorf("faultinject: unknown fs crash point %q (declared: %s)",
			f.Point, strings.Join(FSPoints(), ", "))
	}
	fsArmed.Store(&fsState{fault: f})
	return nil
}

// DisarmFS clears any armed filesystem fault.
func DisarmFS() { fsArmed.Store(nil) }

// ArmFSFromEnv arms a fault from the PRESSIO_FS_CRASH environment variable
// ("point[:mode[:after]]"). It reports whether a fault was armed; a present
// but malformed value is an error. Child processes of a crash campaign call
// this before opening the store.
func ArmFSFromEnv() (bool, error) {
	v := os.Getenv(EnvFSCrash)
	if v == "" {
		return false, nil
	}
	parts := strings.Split(v, ":")
	f := FSFault{Point: parts[0]}
	if len(parts) > 1 {
		f.Mode = parts[1]
	}
	if len(parts) > 2 {
		n, err := strconv.Atoi(parts[2])
		if err != nil || n < 0 {
			return false, fmt.Errorf("faultinject: bad %s after-count %q", EnvFSCrash, parts[2])
		}
		f.After = n
	}
	if len(parts) > 3 {
		return false, fmt.Errorf("faultinject: bad %s value %q", EnvFSCrash, v)
	}
	if err := ArmFS(f); err != nil {
		return false, err
	}
	return true, nil
}

// FSArmed reports whether the named point is currently armed and due to fire
// on its next hit (its After count already consumed). Callers that need to
// stage extra state before the crash — e.g. the journal writing a deliberate
// half record to simulate a torn append — consult this before FSCrash.
func FSArmed(point string) bool {
	st := fsArmed.Load()
	return st != nil && st.fault.Point == point && st.hits.Load() >= int64(st.fault.After)
}

// FSCrash is the hook durable-storage code calls at each declared point.
// Disarmed or non-matching points cost one atomic load. At the armed point it
// counts down After, then fires: FSModeFail returns ErrFSCrash (wrapped with
// the point name), FSModeExit hard-stops the process.
func FSCrash(point string) error {
	st := fsArmed.Load()
	if st == nil || st.fault.Point != point {
		return nil
	}
	if st.hits.Add(1)-1 < int64(st.fault.After) {
		return nil
	}
	trace.CounterAdd(CtrFSCrashes, 1)
	trace.CounterAdd(trace.CtrFaultsInjected, 1)
	if st.fault.Mode == FSModeExit {
		// A hard stop, not a panic: no deferred cleanup may run, exactly as
		// with SIGKILL. The store's crash matrix depends on this.
		fmt.Fprintf(os.Stderr, "faultinject: hard stop at fs crash point %s\n", point)
		os.Exit(FSExitCode)
	}
	return fmt.Errorf("%w at %s", ErrFSCrash, point)
}
