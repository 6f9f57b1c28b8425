package daemon

// The object-store surface: when -store-dir is set, the daemon exposes the
// crash-consistent compressed object store (internal/store) as a REST
// resource. The store is the first entry of the daemon's start list, AHEAD
// of the listener, so crash recovery (journal replay, torn-tail truncation,
// segment rebuild) completes before the first request can arrive, and
// /readyz reports 503 until it has. The scrubber rides the same component:
// it starts after recovery and stops before the journal closes.
//
//	PUT    /objects/{name}?dims=..&dtype=..[&filter=..&chunk_rows=..&fopt=k=v]
//	GET    /objects/{name}            (full object; Range: bytes=a-b → 206)
//	GET    /objects/{name}?rows=s,n   (dim-0 hyperslab)
//	DELETE /objects/{name}
//	GET    /objects                   (listing, JSON)
//
// Durability contract: a 2xx on PUT or DELETE means the mutation is fsynced
// into the write-ahead journal and survives any crash (the kill-matrix in
// internal/store/crash_test.go is the proof). 404 is an unknown name; 409
// means the requested bytes overlap a quarantined (checksum-failed) chunk —
// non-overlapping row reads of the same object still succeed.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"log/slog"
	"net/http"
	"sort"
	"strconv"
	"strings"

	"pressio/internal/cluster"
	"pressio/internal/core"
	"pressio/internal/obslog"
	"pressio/internal/store"
)

const (
	headerDType = "X-Pressio-Dtype"
	headerDims  = "X-Pressio-Dims"
)

// startStore runs crash recovery (Open) and launches the scrubber.
func (d *Daemon) startStore(context.Context) error {
	s, err := store.Open(d.cfg.StoreDir, store.Options{CheckpointBytes: d.cfg.StoreCheckpointBytes})
	if err != nil {
		return fmt.Errorf("opening object store: %w", err)
	}
	d.store = s
	rec := s.Recovery()
	recJSON, _ := json.Marshal(rec)
	obslog.Default().Info("store.open",
		slog.String("dir", d.cfg.StoreDir),
		slog.Int("objects", len(s.List())),
		slog.String("recovery", string(recJSON)))
	d.scrubber = store.NewScrubber(s, d.cfg.ScrubInterval, scrubSeed(d.cfg.StoreDir))
	d.scrubber.Start()
	return nil
}

// stopStore halts the scrubber, checkpoints (so the next start replays an
// empty journal), and closes.
func (d *Daemon) stopStore(context.Context) error {
	d.scrubber.Stop()
	if err := d.store.Checkpoint(); err != nil && !errors.Is(err, store.ErrClosed) {
		obslog.Default().Warn("store.checkpoint_on_stop", obslog.Err(err))
	}
	return d.store.Close()
}

// storeReady gates /readyz on recovery having finished and on the store
// accepting writes (a broken journal takes the node out until a restart).
func (d *Daemon) storeReady() bool { return d.store != nil && d.store.Ready() }

// scrubSeed derives a stable per-directory jitter seed so a fleet of
// daemons with different store paths scrubs out of phase.
func scrubSeed(dir string) uint64 {
	h := fnv.New64a()
	_, _ = io.WriteString(h, dir) // hash.Hash.Write never fails
	return h.Sum64()
}

// writeStoreError maps a store error to its HTTP shape.
func writeStoreError(w http.ResponseWriter, err error) int {
	var status int
	switch {
	case errors.Is(err, store.ErrNotFound):
		status = http.StatusNotFound
	case errors.Is(err, store.ErrQuarantined):
		w.Header().Set(headerError, "quarantined")
		status = http.StatusConflict
	case errors.Is(err, store.ErrClosed):
		w.Header().Set("Retry-After", "1")
		status = http.StatusServiceUnavailable
	case errors.Is(err, store.ErrOutOfRange):
		status = http.StatusRequestedRangeNotSatisfiable
	case errors.Is(err, core.ErrInvalidOption), errors.Is(err, core.ErrNilData):
		status = http.StatusBadRequest
	default:
		w.Header().Set(headerError, "fault")
		status = http.StatusInternalServerError
	}
	http.Error(w, err.Error(), status)
	return status
}

// writeObjectJSON renders one JSON response with the store content type.
func writeObjectJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// handleObjectPut stores the request body under the path name. The body is
// raw sample bytes; dims/dtype describe its shape exactly as on /compress.
func (d *Daemon) handleObjectPut(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	q := r.URL.Query()
	dtype, dims, err := parseShape(q)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	po := store.PutOptions{Filter: q.Get("filter")}
	if cr := q.Get("chunk_rows"); cr != "" {
		v, err := strconv.ParseUint(cr, 10, 64)
		if err != nil {
			http.Error(w, fmt.Sprintf("bad chunk_rows %q: %v", cr, err), http.StatusBadRequest)
			return
		}
		po.ChunkRows = v
	}
	for _, kv := range q["fopt"] {
		k, vs, ok := strings.Cut(kv, "=")
		v, err := strconv.ParseFloat(vs, 64)
		if !ok || err != nil {
			http.Error(w, fmt.Sprintf("bad fopt %q: want key=float", kv), http.StatusBadRequest)
			return
		}
		if po.FilterOptions == nil {
			po.FilterOptions = map[string]float64{}
		}
		po.FilterOptions[k] = v
	}
	// A PUT compresses, so it shares the compress bulkhead with /compress.
	body, release, err := d.admitBody(r.Context(), w, r, cluster.OpCompress, nil)
	if err != nil {
		writeError(w, err)
		return
	}
	defer release()
	in, err := core.NewMove(dtype, body, dims...)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	info, err := d.store.Put(name, in, po)
	if err != nil {
		writeStoreError(w, err)
		return
	}
	writeObjectJSON(w, http.StatusCreated, info)
}

// handleObjectGet serves an object (or a slice of one) back as raw bytes.
// ?rows=start,count selects a dim-0 hyperslab; a Range: bytes=a-b header
// selects a byte range of the uncompressed stream and answers 206. Either
// way only the chunks overlapping the request are read and decompressed.
func (d *Daemon) handleObjectGet(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	var (
		payload []byte
		info    store.ObjectInfo
		err     error
		dims    []uint64
		partial bool
		rangeHW string
	)
	switch {
	case r.URL.Query().Get("rows") != "":
		spec := r.URL.Query().Get("rows")
		s, c, ok := strings.Cut(spec, ",")
		startRow, err1 := strconv.ParseUint(s, 10, 64)
		count, err2 := strconv.ParseUint(c, 10, 64)
		if !ok || err1 != nil || err2 != nil {
			http.Error(w, fmt.Sprintf("bad rows %q: want start,count", spec), http.StatusBadRequest)
			return
		}
		var data *core.Data
		data, info, err = d.store.GetRows(name, startRow, count)
		if err == nil {
			payload, dims = data.Bytes(), data.Dims()
		}
	case strings.HasPrefix(r.Header.Get("Range"), "bytes="):
		spec := strings.TrimPrefix(r.Header.Get("Range"), "bytes=")
		a, b, ok := strings.Cut(spec, "-")
		off, err1 := strconv.ParseInt(a, 10, 64)
		end, err2 := strconv.ParseInt(b, 10, 64)
		if !ok || err1 != nil || err2 != nil || end < off {
			http.Error(w, fmt.Sprintf("unsupported range %q: want bytes=first-last", r.Header.Get("Range")), http.StatusRequestedRangeNotSatisfiable)
			return
		}
		payload, info, err = d.store.GetRange(name, off, end-off+1)
		if err == nil {
			partial = true
			rangeHW = fmt.Sprintf("bytes %d-%d/%d", off, end, info.UncompressedBytes)
		}
	default:
		var data *core.Data
		data, info, err = d.store.Get(name)
		if err == nil {
			payload, dims = data.Bytes(), data.Dims()
		}
	}
	if err != nil {
		writeStoreError(w, err)
		return
	}
	h := w.Header()
	h.Set("Content-Type", "application/octet-stream")
	h.Set(headerDType, info.DType)
	if dims != nil {
		parts := make([]string, len(dims))
		for i, v := range dims {
			parts[i] = strconv.FormatUint(v, 10)
		}
		h.Set(headerDims, strings.Join(parts, ","))
	}
	status := http.StatusOK
	if partial {
		h.Set("Content-Range", rangeHW)
		status = http.StatusPartialContent
	}
	writeData(w, status, payload)
}

// handleObjectDelete removes an object; 204 means the tombstone is durable.
func (d *Daemon) handleObjectDelete(w http.ResponseWriter, r *http.Request) {
	if err := d.store.Delete(r.PathValue("name")); err != nil {
		writeStoreError(w, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// handleObjectList lists every live object, sorted by name.
func (d *Daemon) handleObjectList(w http.ResponseWriter, _ *http.Request) {
	infos := d.store.List()
	sort.Slice(infos, func(i, k int) bool { return infos[i].Name < infos[k].Name })
	writeObjectJSON(w, http.StatusOK, struct {
		Objects []store.ObjectInfo `json:"objects"`
	}{Objects: infos})
}
