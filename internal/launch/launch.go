// Package launch implements the two "how not to integrate compression"
// baselines that §V of the paper quantifies, so the repository can measure
// them against the embedded generic interface:
//
//   - External: compression through a separate worker process with the data
//     copied across pipes (the NumCodecs/Z-Checker external-tool pattern) —
//     embeddable-interface overhead;
//   - string-ly typed configuration: options carried as strings and parsed
//     against the compressor's introspected types at runtime (the
//     ADIOS2/CBench pattern) — which also demonstrates why opaque types
//     such as communicators cannot be configured that way.
package launch

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os/exec"
	"strings"
	"time"

	"pressio/internal/core"
)

// ErrProtocol reports a malformed worker exchange.
var ErrProtocol = errors.New("launch: protocol error")

// Request is one unit of work shipped to a worker process.
type Request struct {
	// Op is "compress" or "decompress".
	Op string
	// Compressor names the plugin the worker should use.
	Compressor string
	// Options are string-typed options (parsed by the worker).
	Options map[string]string
	// Payload is the input buffer.
	Payload *core.Data
	// Hint carries the output dtype/dims for decompression.
	Hint *core.Data
}

const reqMagic = "LPRQ"

func writeString(w io.Writer, s string) error {
	var lenBuf [4]byte
	binary.LittleEndian.PutUint32(lenBuf[:], uint32(len(s)))
	if _, err := w.Write(lenBuf[:]); err != nil {
		return err
	}
	_, err := io.WriteString(w, s)
	return err
}

func readString(r io.Reader) (string, error) {
	var lenBuf [4]byte
	if _, err := io.ReadFull(r, lenBuf[:]); err != nil {
		return "", err
	}
	n := binary.LittleEndian.Uint32(lenBuf[:])
	if n > 1<<24 {
		return "", ErrProtocol
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return "", err
	}
	return string(buf), nil
}

func writeData(w io.Writer, d *core.Data) error {
	if d == nil {
		d = core.NewEmpty(core.DTypeUnset)
	}
	var hdr []byte
	hdr = append(hdr, byte(d.DType()), byte(d.NumDims()))
	for _, dim := range d.Dims() {
		hdr = binary.AppendUvarint(hdr, dim)
	}
	hdr = binary.AppendUvarint(hdr, d.ByteLen())
	if _, err := w.Write(hdr); err != nil {
		return err
	}
	if d.ByteLen() > 0 {
		if _, err := w.Write(d.Bytes()); err != nil {
			return err
		}
	}
	return nil
}

func readData(r *bufReader) (*core.Data, error) {
	dtypeB, err := r.ReadByte()
	if err != nil {
		return nil, err
	}
	rankB, err := r.ReadByte()
	if err != nil {
		return nil, err
	}
	dtype := core.DType(dtypeB)
	rank := int(rankB)
	if rank > 16 {
		return nil, ErrProtocol
	}
	dims := make([]uint64, rank)
	for i := range dims {
		v, err := binary.ReadUvarint(r)
		if err != nil {
			return nil, err
		}
		dims[i] = v
	}
	blen, err := binary.ReadUvarint(r)
	if err != nil {
		return nil, err
	}
	if blen > 1<<34 {
		return nil, ErrProtocol
	}
	buf := make([]byte, blen)
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, err
	}
	if blen == 0 {
		return core.NewEmpty(dtype, dims...), nil
	}
	d, err := core.NewMove(dtype, buf, dims...)
	if err != nil {
		// Fall back to an opaque byte payload (used for compressed data).
		return core.NewBytes(buf), nil
	}
	return d, nil
}

// bufReader is the minimal ByteReader+Reader the decoder needs.
type bufReader struct {
	r io.Reader
}

func (b *bufReader) Read(p []byte) (int, error) { return b.r.Read(p) }
func (b *bufReader) ReadByte() (byte, error) {
	var one [1]byte
	if _, err := io.ReadFull(b.r, one[:]); err != nil {
		return 0, err
	}
	return one[0], nil
}

// WriteRequest serializes a request to w.
func WriteRequest(w io.Writer, req Request) error {
	if _, err := io.WriteString(w, reqMagic); err != nil {
		return err
	}
	if err := writeString(w, req.Op); err != nil {
		return err
	}
	if err := writeString(w, req.Compressor); err != nil {
		return err
	}
	var kv bytes.Buffer
	n := 0
	for k, v := range req.Options {
		if err := writeString(&kv, k); err != nil {
			return err
		}
		if err := writeString(&kv, v); err != nil {
			return err
		}
		n++
	}
	var cnt [4]byte
	binary.LittleEndian.PutUint32(cnt[:], uint32(n))
	if _, err := w.Write(cnt[:]); err != nil {
		return err
	}
	if _, err := w.Write(kv.Bytes()); err != nil {
		return err
	}
	if err := writeData(w, req.Payload); err != nil {
		return err
	}
	return writeData(w, req.Hint)
}

// ReadRequest parses a request from r.
func ReadRequest(r io.Reader) (Request, error) {
	br := &bufReader{r}
	magic := make([]byte, 4)
	if _, err := io.ReadFull(br, magic); err != nil {
		return Request{}, err
	}
	if string(magic) != reqMagic {
		return Request{}, ErrProtocol
	}
	var req Request
	var err error
	if req.Op, err = readString(br); err != nil {
		return req, err
	}
	if req.Compressor, err = readString(br); err != nil {
		return req, err
	}
	var cnt [4]byte
	if _, err := io.ReadFull(br, cnt[:]); err != nil {
		return req, err
	}
	n := binary.LittleEndian.Uint32(cnt[:])
	if n > 1<<16 {
		return req, ErrProtocol
	}
	req.Options = make(map[string]string, n)
	for i := uint32(0); i < n; i++ {
		k, err := readString(br)
		if err != nil {
			return req, err
		}
		v, err := readString(br)
		if err != nil {
			return req, err
		}
		req.Options[k] = v
	}
	if req.Payload, err = readData(br); err != nil {
		return req, err
	}
	if req.Hint, err = readData(br); err != nil {
		return req, err
	}
	return req, nil
}

// Serve handles one request read from r and writes the response Data to w.
// It is the body of a worker process's main loop.
func Serve(r io.Reader, w io.Writer) error {
	req, err := ReadRequest(r)
	if err != nil {
		return err
	}
	c, err := core.NewCompressor(req.Compressor)
	if err != nil {
		return err
	}
	if err := ApplyStringOptions(c, req.Options); err != nil {
		return err
	}
	switch req.Op {
	case "compress":
		out, err := core.Compress(c, req.Payload)
		if err != nil {
			return err
		}
		return writeData(w, out)
	case "decompress":
		out := core.NewEmpty(req.Hint.DType(), req.Hint.Dims()...)
		if err := c.Decompress(req.Payload, out); err != nil {
			return err
		}
		return writeData(w, out)
	default:
		return fmt.Errorf("%w: op %q", ErrProtocol, req.Op)
	}
}

// External invokes compression through a worker subprocess, copying the
// data across the process boundary both ways — the §V non-embeddable
// pattern whose overhead the bench harness measures.
type External struct {
	// Binary is the worker executable; Args are prepended arguments that
	// select its worker mode.
	Binary string
	Args   []string
	// StartupDelay simulates expensive worker initialization (e.g. an
	// MPI-launched compressor); zero for a plain process spawn.
	StartupDelay time.Duration
	// Deadline bounds one whole worker exchange (spawn, write, compute,
	// read). When it passes the subprocess is killed and the call returns an
	// error wrapping core.ErrTimeout, which classifies as transient so a
	// guard layer may retry. Zero means no deadline.
	Deadline time.Duration
}

// Compress runs one compression in the worker and reports the total
// wall-clock time of the external exchange.
func (e *External) Compress(compressor string, opts map[string]string, in *core.Data) (*core.Data, time.Duration, error) {
	start := time.Now()
	var reqBuf bytes.Buffer
	err := WriteRequest(&reqBuf, Request{
		Op: "compress", Compressor: compressor, Options: opts, Payload: in,
	})
	if err != nil {
		return nil, 0, err
	}
	args := append([]string(nil), e.Args...)
	if e.StartupDelay > 0 {
		args = append(args, fmt.Sprintf("-startup-delay=%s", e.StartupDelay))
	}
	ctx := context.Background()
	if e.Deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, e.Deadline)
		defer cancel()
	}
	cmd := exec.CommandContext(ctx, e.Binary, args...)
	if e.Deadline > 0 {
		// Without this, Run blocks past the kill while any grandchild that
		// inherited the stdout pipe keeps it open.
		cmd.WaitDelay = 100 * time.Millisecond
	}
	cmd.Stdin = &reqBuf
	var out bytes.Buffer
	var errBuf bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &errBuf
	if err := cmd.Run(); err != nil {
		if ctx.Err() == context.DeadlineExceeded {
			return nil, 0, fmt.Errorf("launch: %w: worker exceeded deadline %s (killed)",
				core.ErrTimeout, e.Deadline)
		}
		return nil, 0, fmt.Errorf("launch: worker failed: %v: %s", err, errBuf.String())
	}
	d, err := readData(&bufReader{&out})
	if err != nil {
		return nil, 0, err
	}
	return d, time.Since(start), nil
}

// ApplyStringOptions configures c from string-typed key/value pairs by
// introspecting the compressor's option types and parsing each value — the
// "string-ly typed" configuration pattern. Keys the compressor does not
// advertise are tried as double, int64, then string.
func ApplyStringOptions(c *core.Compressor, kv map[string]string) error {
	if len(kv) == 0 {
		return nil
	}
	known := c.Options()
	opts := core.NewOptions()
	for k, v := range kv {
		strOpt := core.NewOption(v)
		if existing, ok := known.Get(k); ok && existing.Type() != core.OptUnset {
			cast, ok := strOpt.Cast(existing.Type(), core.CastSpecial)
			if !ok {
				return fmt.Errorf("%w: cannot parse %q as %v for %s",
					core.ErrInvalidOption, v, existing.Type(), k)
			}
			opts.Set(k, cast)
			continue
		}
		if cast, ok := strOpt.Cast(core.OptDouble, core.CastSpecial); ok {
			opts.Set(k, cast)
		} else if cast, ok := strOpt.Cast(core.OptInt64, core.CastSpecial); ok {
			opts.Set(k, cast)
		} else {
			opts.Set(k, strOpt)
		}
	}
	return c.SetOptions(opts)
}

// ApplyOptionFlags configures c from "key=value" strings, the -o flag form
// the pressio CLI and pressiod share, through ApplyStringOptions.
func ApplyOptionFlags(c *core.Compressor, flags []string) error {
	kv := make(map[string]string, len(flags))
	for _, f := range flags {
		k, v, ok := strings.Cut(f, "=")
		if !ok {
			return fmt.Errorf("bad option %q: want key=value", f)
		}
		kv[k] = v
	}
	return ApplyStringOptions(c, kv)
}
