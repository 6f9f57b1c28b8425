package core

import (
	"errors"
	"fmt"
)

// Sentinel errors mirroring the error categories libpressio reports through
// pressio_error_code/pressio_error_msg. Plugins wrap these with context so
// callers can both test with errors.Is and print a meaningful message.
var (
	// ErrInvalidOption indicates an option had the wrong type or an
	// out-of-range value.
	ErrInvalidOption = errors.New("invalid option")
	// ErrMissingOption indicates a required option was not provided.
	ErrMissingOption = errors.New("missing option")
	// ErrInvalidDType indicates an unsupported element type for the plugin.
	ErrInvalidDType = errors.New("invalid dtype")
	// ErrInvalidDims indicates unsupported dimensions (rank or extents).
	ErrInvalidDims = errors.New("invalid dimensions")
	// ErrUnknownPlugin indicates a name that is not registered.
	ErrUnknownPlugin = errors.New("unknown plugin")
	// ErrCorrupt indicates a malformed compressed stream.
	ErrCorrupt = errors.New("corrupt compressed stream")
	// ErrNotImplemented indicates an operation the plugin does not support.
	ErrNotImplemented = errors.New("not implemented")
	// ErrNilData indicates a nil Data argument where one is required.
	ErrNilData = errors.New("nil data")
	// ErrTransient classifies a failure as retryable: the same call may
	// succeed if repeated (resource pressure, a flaky worker, a timeout).
	// Producers mark errors with Transient(); consumers test with
	// IsTransient. Errors not so marked are permanent by default.
	ErrTransient = errors.New("transient failure")
	// ErrTimeout indicates an operation exceeded its deadline. Timeouts are
	// transient by definition: IsTransient reports true for them without an
	// explicit Transient wrapper.
	ErrTimeout = errors.New("operation timed out")
	// ErrPanicked indicates a plugin panicked and the panic was converted to
	// an error at the framework boundary (the guard meta-compressor).
	// Panics signal bugs or corrupt state, so they are permanent.
	ErrPanicked = errors.New("plugin panicked")
	// ErrShed indicates a request was rejected by an overload-protection
	// policy (admission control, a full queue, a deadline that would expire
	// while queued, or an open circuit breaker) before any work was done.
	// Shedding is a policy decision, not a fault: IsTransient deliberately
	// reports false so retry loops inside the process do not hammer an
	// overloaded component — the *caller* should back off and retry later.
	ErrShed = errors.New("request shed: overloaded")
)

// transientError marks its wrapped error as transient while preserving the
// original message and errors.Is/As chain.
type transientError struct {
	err error
}

func (e *transientError) Error() string { return e.err.Error() }
func (e *transientError) Unwrap() error { return e.err }

// Is lets errors.Is(err, ErrTransient) succeed without making ErrTransient
// part of the message chain.
func (e *transientError) Is(target error) bool { return target == ErrTransient }

// Transient marks err as retryable. It returns nil for nil and is idempotent.
func Transient(err error) error {
	if err == nil {
		return nil
	}
	if errors.Is(err, ErrTransient) {
		return err
	}
	return &transientError{err: err}
}

// IsTransient reports whether err is marked retryable — explicitly via
// Transient/ErrTransient or implicitly by being a timeout. The check sees
// through PluginError and fmt.Errorf %w wrapping.
func IsTransient(err error) bool {
	return errors.Is(err, ErrTransient) || errors.Is(err, ErrTimeout)
}

// IsBadInput reports whether err is the caller's fault: an invalid option, or
// a payload that is corrupt or does not fit its declared dtype and dims. No
// other server would accept the request, so it is neither retried, failed
// over nor charged to a circuit breaker.
func IsBadInput(err error) bool {
	return errors.Is(err, ErrInvalidOption) || errors.Is(err, ErrCorrupt) ||
		errors.Is(err, ErrInvalidDType) || errors.Is(err, ErrInvalidDims)
}

// PluginError attaches the name of the plugin that produced an error, so
// errors surfacing through deeply composed meta-compressors still identify
// their origin.
type PluginError struct {
	Plugin string // plugin prefix, e.g. "sz"
	Err    error
}

// Error implements the error interface.
func (e *PluginError) Error() string { return fmt.Sprintf("%s: %v", e.Plugin, e.Err) }

// Unwrap exposes the wrapped error for errors.Is / errors.As.
func (e *PluginError) Unwrap() error { return e.Err }

// wrapPlugin annotates err with the plugin prefix unless it is nil or
// already annotated with the same prefix.
func wrapPlugin(prefix string, err error) error {
	if err == nil {
		return nil
	}
	var pe *PluginError
	if errors.As(err, &pe) && pe.Plugin == prefix {
		return err
	}
	return &PluginError{Plugin: prefix, Err: err}
}
