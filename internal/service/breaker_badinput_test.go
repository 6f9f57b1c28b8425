package service

import (
	"testing"

	"pressio/internal/core"
)

// TestBreakerDoesNotChargeBadInput: a corrupt payload is the caller's fault.
// Decoding garbage far past failure_threshold times returns the decoder's
// error every time, and the circuit stays closed.
func TestBreakerDoesNotChargeBadInput(t *testing.T) {
	comp, b, _ := newTestBreaker(t, "badinput", nil)
	garbage := core.NewBytes([]byte("not a noop stream"))
	for i := 0; i < 10; i++ {
		err := comp.Decompress(garbage, core.NewEmpty(core.DTypeFloat32, 4))
		if !core.IsBadInput(err) {
			t.Fatalf("call %d: %v, want the decoder's bad-input error", i, err)
		}
	}
	if mode := b.state().Mode(); mode != ModeClosed {
		t.Fatalf("breaker %v after bad input, want closed", mode)
	}
}
