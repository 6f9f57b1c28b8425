package blockinglock_bad

// This file pins the range forms. Ranging over a channel parks until a peer
// sends or closes, so holding a lock across it is a convoy; ranging over a
// slice under the lock, or over the channel after the lock is released, is
// clean.

import "sync"

type feed struct {
	mu    sync.Mutex
	ch    chan int
	vals  []int
	total int
}

// drainLocked ranges over the channel with the lock held. Flagged.
func (x *feed) drainLocked() {
	x.mu.Lock()
	for v := range x.ch {
		x.total += v
	}
	x.mu.Unlock()
}

// sumLocked ranges over an in-memory slice under the lock. Clean.
func (x *feed) sumLocked() {
	x.mu.Lock()
	for _, v := range x.vals {
		x.total += v
	}
	x.mu.Unlock()
}

// drainUnlocked releases the lock before ranging over the channel. Clean.
func (x *feed) drainUnlocked() {
	x.mu.Lock()
	ch := x.ch
	x.mu.Unlock()
	for v := range ch {
		_ = v
	}
}
