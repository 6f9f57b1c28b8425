package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"strconv"
	"sync"
	"time"

	"pressio/internal/daemon"
	"pressio/internal/sdrbench"
	"pressio/internal/store"
	"pressio/internal/trace"
)

// The object every store_rw PUT writes: 16 x 128 x 128 float32 = 1 MiB in
// four chunks of four rows, each chunk filtered through zfp at absBound.
const (
	objRows      = 16
	objRowBytes  = 128 * 128 * 4
	objChunkRows = 4
	objBytes     = objRows * objRowBytes
	objRange     = 64 << 10
	// storeKeys is each client's share of the keyspace. A client owns its
	// keys, so it knows what every one of them must hold; the store still
	// sees both clients at once (group commit, locks, checkpoints).
	storeKeys = 16
	// storeContents is the number of distinct fields objects are filled from.
	storeContents = 4
	// storeCheckpointBytes makes the journal checkpoint several times inside
	// one run (pressiod's default, 64 MiB, would not be reached in
	// runSeconds), so the background work is inside the measurement.
	storeCheckpointBytes = 6 << 20
)

var objQuery = "?dims=16,128,128&dtype=float32&filter=zfp&chunk_rows=" + strconv.Itoa(objChunkRows) +
	"&fopt=pressio:abs=" + strconv.FormatFloat(absBound, 'g', -1, 64)

// storeKey is what a client knows about one of its objects.
type storeKey struct {
	name    string
	live    bool
	content int
}

// storeWorkload is an operator's view of the object store behind pressiod:
// writes beside full, one-chunk and byte-range reads, and deletes, over HTTP.
type storeWorkload struct {
	scratch string
	dir     string
	d       *daemon.Daemon
	lc      *loadClient
	raw     [storeContents][]byte
	// ref[p] is content p as the store gives it back (zfp is lossy); it is
	// taken from a full GET during set-up and checked against raw[p] there.
	// Decoding is deterministic, so every later read must equal its slice.
	ref  [storeContents][]byte
	keys [serveClients][]storeKey
	rngs []*rand.Rand
	bufs []*bytes.Buffer
	inB  int64
	outB int64
}

func (w *storeWorkload) clients() int { return serveClients }
func (w *storeWorkload) cycle() int   { return 1 }
func (w *storeWorkload) group() int   { return 1 }

func (w *storeWorkload) ratio() float64 { return float64(w.inB) / float64(w.outB) }

func (w *storeWorkload) base() string { return "http://" + w.d.Addr() }

func (w *storeWorkload) url(k *storeKey) string { return w.base() + "/objects/" + k.name }

func (w *storeWorkload) setup(seed int64) error {
	dir, err := os.MkdirTemp(w.scratch, "store-")
	if err != nil {
		return err
	}
	w.dir = dir
	for p := range w.raw {
		w.raw[p] = sdrbench.ScaleLetKF(objRows, 128, 128, seed+int64(p)).Bytes()
		w.ref[p] = nil
	}
	cfg := baseConfig()
	cfg.Compressor = "noop"
	cfg.StoreDir = dir
	cfg.StoreCheckpointBytes = storeCheckpointBytes
	if w.d, err = startDaemon(cfg); err != nil {
		return err
	}
	w.lc = newLoadClient()
	w.rngs, w.bufs = nil, nil
	for c := 0; c < serveClients; c++ {
		w.rngs = append(w.rngs, rand.New(rand.NewSource(seed*31+int64(c))))
		w.bufs = append(w.bufs, new(bytes.Buffer))
		w.keys[c] = make([]storeKey, storeKeys)
		for k := range w.keys[c] {
			w.keys[c][k] = storeKey{name: fmt.Sprintf("c%d/k%02d", c, k)}
		}
	}
	if err := waitReady(w.lc, w.base()); err != nil {
		return err
	}

	// Preload: both clients PUT their keys. The ratio is taken here, over the
	// same objects every run.
	w.inB, w.outB = 0, 0
	var wg sync.WaitGroup
	errs := make([]error, serveClients)
	stored := make([]int64, serveClients)
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for k := range w.keys[c] {
				key := &w.keys[c][k]
				n, _, err := w.put(c, key, (c*storeKeys+k)%storeContents, nil)
				if err != nil {
					errs[c] = err
					return
				}
				stored[c] += n
			}
		}(c)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return fmt.Errorf("preload: %w", err)
	}
	w.inB = int64(serveClients * storeKeys * objBytes)
	w.outB = stored[0] + stored[1]

	// References: one full GET per content, checked against the bound.
	for k := range w.keys[0][:storeContents] {
		key := &w.keys[0][k]
		call, err := w.lc.do(nil, http.MethodGet, w.url(key), nil, "", w.bufs[0])
		if err != nil || call.status != http.StatusOK {
			return fmt.Errorf("reference GET %s: status %d: %v", key.name, call.status, err)
		}
		got := bytes.Clone(w.bufs[0].Bytes())
		want, err1 := float32View(w.raw[key.content], objBytes/4)
		have, err2 := float32View(got, uint64(len(got)/4))
		if err1 != nil || err2 != nil || !withinAbs(want, have, absBound) {
			return fmt.Errorf("reference GET %s violates the %g bound", key.name, absBound)
		}
		w.ref[key.content] = got
	}
	if attempted, failed := runOps(w, 20); failed > 0 {
		return fmt.Errorf("warm-up: %d of %d ops failed", failed, attempted)
	}
	return nil
}

// put stores content p under key and returns the stored (compressed) bytes
// and the client-observed time. A 201 means the write is fsynced into the
// journal, so from here on the key must read back as content p.
func (w *storeWorkload) put(c int, key *storeKey, p int, rt *trace.RequestTrace) (int64, time.Duration, error) {
	call, err := w.lc.do(rt, http.MethodPut, w.url(key)+objQuery, w.raw[p], "", w.bufs[c])
	if err != nil {
		return 0, 0, err
	}
	if call.status != http.StatusCreated {
		return 0, 0, fmt.Errorf("PUT %s: status %d", key.name, call.status)
	}
	var info store.ObjectInfo
	if err := json.Unmarshal(w.bufs[c].Bytes(), &info); err != nil {
		return 0, 0, fmt.Errorf("PUT %s: decoding reply: %w", key.name, err)
	}
	key.live, key.content = true, p
	return int64(info.StoredBytes), call.dur, nil
}

// liveKey picks one of the client's live keys; at least minLiveKeys of them
// always are.
func (w *storeWorkload) liveKey(c int, rng *rand.Rand) *storeKey {
	keys := w.keys[c]
	for i, n := rng.Intn(len(keys)), 0; n < len(keys); i, n = (i+1)%len(keys), n+1 {
		if keys[i].live {
			return &keys[i]
		}
	}
	return &keys[0]
}

const minLiveKeys = storeKeys / 2

func (w *storeWorkload) liveCount(c int) int {
	n := 0
	for _, k := range w.keys[c] {
		if k.live {
			n++
		}
	}
	return n
}

// op draws the client's next operation: 20% PUT, 30% full GET, 35% one-chunk
// rows GET, 10% 64 KiB Range GET, 5% DELETE. A PUT goes to a deleted key
// first, so deleted objects come back later.
func (w *storeWorkload) op(c, _ int, rt *trace.RequestTrace) opResult {
	rng := w.rngs[c]
	u := rng.Float64()
	buf := w.bufs[c]
	switch {
	case u < 0.20 || (u >= 0.95 && w.liveCount(c) <= minLiveKeys):
		key := &w.keys[c][rng.Intn(storeKeys)]
		for i := range w.keys[c] {
			if !w.keys[c][i].live {
				key = &w.keys[c][i]
				break
			}
		}
		_, dur, err := w.put(c, key, (key.content+1)%storeContents, rt)
		return opResult{kind: opWrite, bytes: objBytes, dur: dur, ok: err == nil}
	case u < 0.50:
		key := w.liveKey(c, rng)
		res := opResult{kind: opRead, bytes: objBytes}
		call, err := w.lc.do(rt, http.MethodGet, w.url(key), nil, "", buf)
		if err != nil || call.status != http.StatusOK {
			return res
		}
		res.dur = call.dur
		res.ok = bytes.Equal(buf.Bytes(), w.ref[key.content])
		return res
	case u < 0.85:
		key := w.liveKey(c, rng)
		chunk := rng.Intn(objRows / objChunkRows)
		res := opResult{kind: opRows, bytes: objChunkRows * objRowBytes}
		q := fmt.Sprintf("?rows=%d,%d", chunk*objChunkRows, objChunkRows)
		call, err := w.lc.do(rt, http.MethodGet, w.url(key)+q, nil, "", buf)
		if err != nil || call.status != http.StatusOK {
			return res
		}
		res.dur = call.dur
		off := chunk * objChunkRows * objRowBytes
		res.ok = bytes.Equal(buf.Bytes(), w.ref[key.content][off:off+objChunkRows*objRowBytes])
		return res
	case u < 0.95:
		key := w.liveKey(c, rng)
		off := 4 * rng.Intn((objBytes-objRange)/4)
		res := opResult{kind: opRange, bytes: objRange}
		hdr := fmt.Sprintf("bytes=%d-%d", off, off+objRange-1)
		call, err := w.lc.do(rt, http.MethodGet, w.url(key), nil, hdr, buf)
		if err != nil || call.status != http.StatusPartialContent {
			return res
		}
		res.dur = call.dur
		res.ok = bytes.Equal(buf.Bytes(), w.ref[key.content][off:off+objRange])
		return res
	default:
		key := w.liveKey(c, rng)
		res := opResult{kind: opDelete}
		call, err := w.lc.do(rt, http.MethodDelete, w.url(key), nil, "", buf)
		if err != nil || call.status != http.StatusNoContent {
			return res
		}
		key.live = false
		res.dur, res.ok = call.dur, true
		return res
	}
}

// teardown drains the daemon, reopens the store from disk alone and checks
// the durability contract: every acknowledged, undeleted object is there and
// equals what was acknowledged, and no deleted object reappears.
func (w *storeWorkload) teardown() (attempted, failed int, err error) {
	if w.d == nil {
		return 0, 0, nil
	}
	defer func() {
		if rmErr := os.RemoveAll(w.dir); err == nil {
			err = rmErr
		}
	}()
	w.lc.close()
	err = w.d.Drain()
	w.d = nil
	if err != nil {
		return 0, 0, err
	}
	s, err := store.Open(w.dir, store.Options{CheckpointBytes: -1})
	if err != nil {
		return 0, 0, fmt.Errorf("reopening the store: %w", err)
	}
	for c := range w.keys {
		for _, key := range w.keys[c] {
			attempted++
			data, _, err := s.Get(key.name)
			switch {
			case !key.live:
				if !errors.Is(err, store.ErrNotFound) {
					failed++
				}
			case err != nil || !bytes.Equal(data.Bytes(), w.ref[key.content]):
				failed++
			}
		}
	}
	return attempted, failed, s.Close()
}
