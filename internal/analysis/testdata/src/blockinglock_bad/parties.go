package blockinglock_bad

// This file pins who bounds the wait. A lock held across a local-disk write,
// an in-memory hash, a sync.Cond.Wait (which releases the lock), a go
// statement (a spawn, not a call) or deriving a *slog.Logger must stay
// unflagged; a lock held across a socket, an arbitrary io.Writer or a log
// line through a *slog.Logger — another party — must be flagged.

import (
	"hash"
	"io"
	"log/slog"
	"net"
	"os"
	"sync"
)

type journal struct {
	mu       sync.Mutex
	cond     *sync.Cond
	f        *os.File
	inflight int
}

// appendLocked writes and fsyncs under the lock that orders the log: a
// critical section that includes local-disk I/O, not a convoy. Clean.
func (j *journal) appendLocked(rec []byte) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if _, err := j.f.Write(rec); err != nil {
		return err
	}
	return j.f.Sync()
}

// drain is the canonical condvar loop: Wait releases j.mu while parked. Clean.
func (j *journal) drain() {
	j.mu.Lock()
	for j.inflight > 0 {
		j.cond.Wait()
	}
	j.mu.Unlock()
}

// start launches a blocking worker under the lock; the spawner does not wait
// for it. Clean.
func (j *journal) start(ch chan int) {
	j.mu.Lock()
	go waitPeer(ch)
	j.mu.Unlock()
}

// hashLocked feeds an in-memory hash through its embedded io.Writer. Clean.
func hashLocked(h hash.Hash64, key []byte) uint64 {
	mu.Lock()
	defer mu.Unlock()
	_, _ = h.Write(key)
	return h.Sum64()
}

// connWriteLocked stalls every mu contender for as long as the peer's
// receive window stays closed.
func connWriteLocked(c net.Conn, p []byte) {
	mu.Lock()
	_, _ = c.Write(p)
	mu.Unlock()
}

// sinkWriteLocked writes to whatever sits behind the interface — a pipe, a
// socket, a slow terminal.
func sinkWriteLocked(w io.Writer, p []byte) {
	mu.Lock()
	_, _ = w.Write(p)
	mu.Unlock()
}

// logLocked writes a log line under the lock: the handler's sink is as
// unbounded as sinkWriteLocked's writer.
func logLocked(l *slog.Logger) {
	mu.Lock()
	l.Info("state", slog.Int("state", state))
	mu.Unlock()
}

// withLocked only derives a logger under the lock; nothing is written. Clean.
func withLocked(l *slog.Logger) *slog.Logger {
	mu.Lock()
	defer mu.Unlock()
	return l.With(slog.Int("state", state))
}
