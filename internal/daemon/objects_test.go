package daemon

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"testing"

	"pressio/internal/store"
)

// objReq performs one HTTP request against the object surface.
func objReq(t *testing.T, method, url string, body []byte, hdr map[string]string) *http.Response {
	t.Helper()
	var rd *bytes.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	} else {
		rd = bytes.NewReader(nil)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func TestObjectStoreEndToEnd(t *testing.T) {
	storeDir := t.TempDir()
	d, drain, done := startTestDaemon(t, func(c *Config) { c.StoreDir = storeDir })
	base := "http://" + d.Addr()

	// The store component starts ahead of the listener and gates readiness.
	if comps := d.comps.String(); comps != "store,listener" {
		t.Fatalf("start order %q, want store before listener", comps)
	}
	if resp := objReq(t, "GET", base+"/readyz", nil, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz after start: %d", resp.StatusCode)
	}

	_, raw := sampleFloat32(64)
	put := objReq(t, "PUT", base+"/objects/sim/run1?dims=64&dtype=float32&filter=flate&chunk_rows=16", raw, nil)
	if put.StatusCode != http.StatusCreated {
		t.Fatalf("put: %d %s", put.StatusCode, readAll(t, put))
	}
	var info store.ObjectInfo
	if err := json.Unmarshal(readAll(t, put), &info); err != nil {
		t.Fatal(err)
	}
	if info.Name != "sim/run1" || info.Chunks != 4 {
		t.Fatalf("put info: %+v", info)
	}

	// Full read: byte-exact, shape in headers.
	get := objReq(t, "GET", base+"/objects/sim/run1", nil, nil)
	if get.StatusCode != http.StatusOK || get.Header.Get(headerDType) != "float32" || get.Header.Get(headerDims) != "64" {
		t.Fatalf("get: %d dtype=%q dims=%q", get.StatusCode, get.Header.Get(headerDType), get.Header.Get(headerDims))
	}
	if got := readAll(t, get); !bytes.Equal(got, raw) {
		t.Fatal("full read not byte-exact")
	}

	// Hyperslab read: rows 16..31 of the dim-0 axis.
	rows := objReq(t, "GET", base+"/objects/sim/run1?rows=16,16", nil, nil)
	if rows.StatusCode != http.StatusOK || rows.Header.Get(headerDims) != "16" {
		t.Fatalf("rows: %d dims=%q", rows.StatusCode, rows.Header.Get(headerDims))
	}
	if got := readAll(t, rows); !bytes.Equal(got, raw[16*4:32*4]) {
		t.Fatal("row read not byte-exact")
	}

	// HTTP range read: bytes 8..23 → 206 with Content-Range.
	rng := objReq(t, "GET", base+"/objects/sim/run1", nil, map[string]string{"Range": "bytes=8-23"})
	if rng.StatusCode != http.StatusPartialContent {
		t.Fatalf("range: %d", rng.StatusCode)
	}
	if cr := rng.Header.Get("Content-Range"); cr != fmt.Sprintf("bytes 8-23/%d", len(raw)) {
		t.Fatalf("content-range: %q", cr)
	}
	if got := readAll(t, rng); !bytes.Equal(got, raw[8:24]) {
		t.Fatal("range read not byte-exact")
	}

	// Listing.
	list := objReq(t, "GET", base+"/objects", nil, nil)
	var listing struct {
		Objects []store.ObjectInfo `json:"objects"`
	}
	if err := json.Unmarshal(readAll(t, list), &listing); err != nil {
		t.Fatal(err)
	}
	if len(listing.Objects) != 1 || listing.Objects[0].Name != "sim/run1" {
		t.Fatalf("listing: %+v", listing)
	}

	// Error shapes: unknown name 404, malformed shape 400, bad rows 400.
	if resp := objReq(t, "GET", base+"/objects/nope", nil, nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("missing object: %d", resp.StatusCode)
	}
	if resp := objReq(t, "PUT", base+"/objects/x?dims=64", raw, nil); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("shapeless put: %d", resp.StatusCode)
	}
	if resp := objReq(t, "GET", base+"/objects/sim/run1?rows=banana", nil, nil); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad rows: %d", resp.StatusCode)
	}

	// A second object that survives the restart below.
	if resp := objReq(t, "PUT", base+"/objects/keep?dims=16&dtype=float32", raw[:64], nil); resp.StatusCode != http.StatusCreated {
		t.Fatalf("put keep: %d", resp.StatusCode)
	}

	// Delete: 204, then 404 on the name, idempotently rejected.
	if resp := objReq(t, "DELETE", base+"/objects/sim/run1", nil, nil); resp.StatusCode != http.StatusNoContent {
		t.Fatalf("delete: %d", resp.StatusCode)
	}
	if resp := objReq(t, "DELETE", base+"/objects/sim/run1", nil, nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("double delete: %d", resp.StatusCode)
	}

	// Drain (checkpoints and closes the store), restart on the same
	// directory: the acknowledged state is all there.
	drain()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	d2, _, _ := startTestDaemon(t, func(c *Config) { c.StoreDir = storeDir })
	base2 := "http://" + d2.Addr()
	if resp := objReq(t, "GET", base2+"/objects/keep", nil, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("keep after restart: %d", resp.StatusCode)
	} else if got := readAll(t, resp); !bytes.Equal(got, raw[:64]) {
		t.Fatal("keep not byte-exact after restart")
	}
	if resp := objReq(t, "GET", base2+"/objects/sim/run1", nil, nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("deleted object resurrected: %d", resp.StatusCode)
	}
}

// TestObjectReadOutsideExtentAnswers416: a read past the object's rows or
// bytes is the client's mistake. It used to surface as a 500 flagged as a
// server fault (and, for a start row that wrapped, as container corruption).
func TestObjectReadOutsideExtentAnswers416(t *testing.T) {
	d, _, _ := startTestDaemon(t, func(c *Config) { c.StoreDir = t.TempDir() })
	base := "http://" + d.Addr()
	_, raw := sampleFloat32(16)
	put := objReq(t, "PUT", base+"/objects/x?dims=16&dtype=float32&chunk_rows=4", raw, nil)
	if put.StatusCode != http.StatusCreated {
		t.Fatalf("put: %d", put.StatusCode)
	}
	put.Body.Close()
	for _, c := range []struct {
		query string
		hdr   map[string]string
	}{
		{"?rows=100,4", nil},
		{"?rows=18446744073709551615,2", nil},
		{"?rows=14,3", nil},
		{"", map[string]string{"Range": "bytes=0-99999999"}},
		{"", map[string]string{"Range": "bytes=64-64"}},
	} {
		resp := objReq(t, "GET", base+"/objects/x"+c.query, nil, c.hdr)
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestedRangeNotSatisfiable || resp.Header.Get(headerError) != "" {
			t.Fatalf("GET %q %v: %d, %s %q; want 416 and no fault header", c.query, c.hdr, resp.StatusCode, headerError, resp.Header.Get(headerError))
		}
	}
	// The extent's last row and last byte are still served.
	for _, c := range []struct {
		query string
		hdr   map[string]string
		code  int
	}{{"?rows=15,1", nil, http.StatusOK}, {"", map[string]string{"Range": "bytes=63-63"}, http.StatusPartialContent}} {
		resp := objReq(t, "GET", base+"/objects/x"+c.query, nil, c.hdr)
		resp.Body.Close()
		if resp.StatusCode != c.code {
			t.Fatalf("GET %q %v: %d, want %d", c.query, c.hdr, resp.StatusCode, c.code)
		}
	}
}

func TestObjectQuarantineAnswers409(t *testing.T) {
	storeDir := t.TempDir()
	d, _, _ := startTestDaemon(t, func(c *Config) { c.StoreDir = storeDir })
	base := "http://" + d.Addr()

	_, raw := sampleFloat32(32)
	put := objReq(t, "PUT", base+"/objects/rot?dims=32&dtype=float32&chunk_rows=8", raw, nil)
	var info store.ObjectInfo
	if err := json.Unmarshal(readAll(t, put), &info); err != nil {
		t.Fatal(err)
	}

	// Structural bit rot: truncate the segment so the scrubber condemns
	// every chunk, then read through the API.
	seg := filepath.Join(storeDir, "objects", info.Segment)
	if err := os.Truncate(seg, 10); err != nil {
		t.Fatal(err)
	}
	if _, err := d.store.ScrubOnce(); err != nil {
		t.Fatal(err)
	}
	resp := objReq(t, "GET", base+"/objects/rot", nil, nil)
	if resp.StatusCode != http.StatusConflict || resp.Header.Get(headerError) != "quarantined" {
		t.Fatalf("quarantined read: %d %q", resp.StatusCode, resp.Header.Get(headerError))
	}
	resp.Body.Close()
	// The listing still shows the object, flagged.
	list := objReq(t, "GET", base+"/objects", nil, nil)
	var listing struct {
		Objects []store.ObjectInfo `json:"objects"`
	}
	if err := json.Unmarshal(readAll(t, list), &listing); err != nil {
		t.Fatal(err)
	}
	if len(listing.Objects) != 1 || len(listing.Objects[0].QuarantinedChunks) != 4 {
		t.Fatalf("listing after quarantine: %+v", listing)
	}
}

// TestMisspeltFilterOptionAnswers400: a filter option in the filter's own
// prefix that it does not declare (sz:abs for sz:abs_err_bound) used to be
// ignored, storing the object at sz's default bound and answering 201. The
// PUT must be refused and store nothing; the documented spelling is stored.
func TestMisspeltFilterOptionAnswers400(t *testing.T) {
	d, _, _ := startTestDaemon(t, func(c *Config) { c.StoreDir = t.TempDir() })
	base := "http://" + d.Addr()
	_, raw := sampleFloat32(64)
	put := objReq(t, "PUT", base+"/objects/typo?dims=64&dtype=float32&filter=sz&fopt=sz:abs=1e-3", raw, nil)
	if body := readAll(t, put); put.StatusCode != http.StatusBadRequest || !bytes.Contains(body, []byte("sz:abs")) {
		t.Fatalf("put with fopt=sz:abs: %d %s, want 400 naming the key", put.StatusCode, body)
	}
	if resp := objReq(t, "GET", base+"/objects/typo", nil, nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("refused put stored an object: GET answers %d", resp.StatusCode)
	}
	put = objReq(t, "PUT", base+"/objects/typo?dims=64&dtype=float32&filter=sz&fopt=pressio:abs=1e-3", raw, nil)
	if put.StatusCode != http.StatusCreated {
		t.Fatalf("put with fopt=pressio:abs: %d %s", put.StatusCode, readAll(t, put))
	}
}

// TestWrappingDimsAnswer400: 2^32 x 2^32 elements wrap a uint64 product to
// zero, which an empty body used to "match"; both data-plane entries must
// refuse the shape.
func TestWrappingDimsAnswer400(t *testing.T) {
	d, _, _ := startTestDaemon(t, func(c *Config) { c.StoreDir = t.TempDir() })
	base := "http://" + d.Addr()
	const shape = "?dims=4294967296,4294967296&dtype=float32"
	for _, c := range []struct{ method, path string }{
		{"POST", "/compress"},
		{"PUT", "/objects/wrap"},
	} {
		resp := objReq(t, c.method, base+c.path+shape, nil, nil)
		if body := readAll(t, resp); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s %s with wrapping dims: %d %s, want 400", c.method, c.path, resp.StatusCode, body)
		}
	}
}

// TestDataRepliesDeclareLength: every data reply (compress, decompress, a
// full object GET and a 206 range) carries a Content-Length equal to its
// body, past net/http's 2 KiB chunking threshold, so a router reads each one
// into a buffer of exactly that size.
func TestDataRepliesDeclareLength(t *testing.T) {
	d, _, _ := startTestDaemon(t, func(c *Config) { c.StoreDir = t.TempDir() })
	base := "http://" + d.Addr()
	_, raw := sampleFloat32(4096)
	compressed := readAll(t, post(t, base+"/compress?dims=4096&dtype=float32", raw))
	put := objReq(t, "PUT", base+"/objects/framed?dims=4096&dtype=float32&chunk_rows=1024", raw, nil)
	if put.StatusCode != http.StatusCreated {
		t.Fatalf("put: %d %s", put.StatusCode, readAll(t, put))
	}
	put.Body.Close()
	for _, c := range []struct {
		name string
		do   func() *http.Response
		code int
		size int
	}{
		{"compress", func() *http.Response { return post(t, base+"/compress?dims=4096&dtype=float32", raw) }, http.StatusOK, len(compressed)},
		{"decompress", func() *http.Response { return post(t, base+"/decompress?dims=4096&dtype=float32", compressed) }, http.StatusOK, len(raw)},
		{"full GET", func() *http.Response { return objReq(t, "GET", base+"/objects/framed", nil, nil) }, http.StatusOK, len(raw)},
		{"range GET", func() *http.Response {
			return objReq(t, "GET", base+"/objects/framed", nil, map[string]string{"Range": "bytes=100-9099"})
		}, http.StatusPartialContent, 9000},
	} {
		resp := c.do()
		body := readAll(t, resp)
		if resp.StatusCode != c.code || len(body) != c.size {
			t.Fatalf("%s: %d with %d bytes, want %d with %d", c.name, resp.StatusCode, len(body), c.code, c.size)
		}
		if resp.ContentLength != int64(len(body)) || len(resp.TransferEncoding) != 0 {
			t.Fatalf("%s: Content-Length %d, Transfer-Encoding %v for a %d-byte body", c.name, resp.ContentLength, resp.TransferEncoding, len(body))
		}
	}
}
