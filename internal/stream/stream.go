// Package stream implements the paper's §VIII future-work item "better
// support for asynchrony and streaming compression": an io.Writer/io.Reader
// pair that compresses an unbounded byte stream in fixed-size frames using
// any registered compressor, plus an asynchronous pipeline that overlaps
// compression of consecutive frames with clones of the compressor.
//
// Frame format: [uvarint raw length][uvarint compressed length][payload],
// terminated by a zero raw length.
package stream

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"

	"pressio/internal/core"
)

// ErrCorrupt reports a malformed frame stream.
var ErrCorrupt = errors.New("stream: corrupt frame")

// DefaultFrameSize is the raw bytes per frame when unspecified.
const DefaultFrameSize = 1 << 20

// Writer compresses written bytes into frames on the underlying writer.
type Writer struct {
	dst       io.Writer
	comp      *core.Compressor
	frameSize int
	buf       []byte
	pipeline  *asyncPipeline
	closed    bool
	err       error
}

// WriterOption configures a Writer.
type WriterOption func(*Writer)

// WithFrameSize sets the raw bytes per frame.
func WithFrameSize(n int) WriterOption {
	return func(w *Writer) {
		if n > 0 {
			w.frameSize = n
		}
	}
}

// WithAsync enables pipelined compression with the given number of worker
// clones (the compressor must be at least thread-safety "serialized").
func WithAsync(workers int) WriterOption {
	return func(w *Writer) {
		if workers > 1 && w.comp.ThreadSafety() >= core.ThreadSafetySerialized {
			w.pipeline = newAsyncPipeline(w.comp, w.dst, workers)
		}
	}
}

// NewWriter wraps dst with a framing compressor. The compressor handle is
// cloned per frame when async, so the caller's handle stays untouched.
func NewWriter(dst io.Writer, compressor string, opts *core.Options, wopts ...WriterOption) (*Writer, error) {
	c, err := core.NewCompressor(compressor)
	if err != nil {
		return nil, err
	}
	if opts != nil {
		if err := c.SetOptions(opts); err != nil {
			return nil, err
		}
	}
	w := &Writer{dst: dst, comp: c, frameSize: DefaultFrameSize}
	for _, o := range wopts {
		o(w)
	}
	return w, nil
}

// Write implements io.Writer.
func (w *Writer) Write(p []byte) (int, error) {
	if w.closed {
		return 0, errors.New("stream: write after close")
	}
	if w.err != nil {
		return 0, w.err
	}
	total := 0
	for len(p) > 0 {
		room := w.frameSize - len(w.buf)
		if room > len(p) {
			room = len(p)
		}
		w.buf = append(w.buf, p[:room]...)
		p = p[room:]
		total += room
		if len(w.buf) == w.frameSize {
			if err := w.flushFrame(); err != nil {
				w.err = err
				return total, err
			}
		}
	}
	return total, nil
}

func (w *Writer) flushFrame() error {
	if len(w.buf) == 0 {
		return nil
	}
	frame := w.buf
	w.buf = nil
	if w.pipeline != nil {
		return w.pipeline.submit(frame)
	}
	return writeFrame(w.dst, w.comp, frame)
}

func writeFrame(dst io.Writer, comp *core.Compressor, frame []byte) error {
	in := core.NewBytes(frame)
	out, err := core.Compress(comp, in)
	if err != nil {
		return err
	}
	var hdr []byte
	hdr = binary.AppendUvarint(hdr, uint64(len(frame)))
	hdr = binary.AppendUvarint(hdr, out.ByteLen())
	if _, err := dst.Write(hdr); err != nil {
		return err
	}
	_, err = dst.Write(out.Bytes())
	return err
}

// Close flushes the final partial frame and writes the terminator.
func (w *Writer) Close() error {
	if w.closed {
		return w.err
	}
	w.closed = true
	if w.err != nil {
		return w.err
	}
	if err := w.flushFrame(); err != nil {
		w.err = err
		return err
	}
	if w.pipeline != nil {
		if err := w.pipeline.drain(); err != nil {
			w.err = err
			return err
		}
	}
	if _, err := w.dst.Write([]byte{0}); err != nil {
		w.err = err
		return err
	}
	return nil
}

// asyncPipeline compresses frames concurrently but writes them in order.
type asyncPipeline struct {
	dst     io.Writer
	results chan chan result
	wg      sync.WaitGroup
	workers chan *core.Compressor
	writeWG sync.WaitGroup
	err     error
	errMu   sync.Mutex
}

type result struct {
	raw  []byte
	data *core.Data
	err  error
}

func newAsyncPipeline(proto *core.Compressor, dst io.Writer, workers int) *asyncPipeline {
	p := &asyncPipeline{dst: dst, results: make(chan chan result, workers)}
	p.workers = make(chan *core.Compressor, workers)
	for i := 0; i < workers; i++ {
		p.workers <- proto.Clone()
	}
	// Single ordered writer goroutine.
	p.writeWG.Add(1)
	go func() {
		defer p.writeWG.Done()
		for ch := range p.results {
			res := <-ch
			if res.err != nil {
				p.setErr(res.err)
				continue
			}
			if p.getErr() != nil {
				continue
			}
			var hdr []byte
			hdr = binary.AppendUvarint(hdr, uint64(len(res.raw)))
			hdr = binary.AppendUvarint(hdr, res.data.ByteLen())
			if _, err := p.dst.Write(hdr); err != nil {
				p.setErr(err)
				continue
			}
			if _, err := p.dst.Write(res.data.Bytes()); err != nil {
				p.setErr(err)
			}
		}
	}()
	return p
}

func (p *asyncPipeline) setErr(err error) {
	p.errMu.Lock()
	if p.err == nil {
		p.err = err
	}
	p.errMu.Unlock()
}

func (p *asyncPipeline) getErr() error {
	p.errMu.Lock()
	defer p.errMu.Unlock()
	return p.err
}

func (p *asyncPipeline) submit(frame []byte) error {
	if err := p.getErr(); err != nil {
		return err
	}
	ch := make(chan result, 1)
	p.results <- ch // establishes output order
	worker := <-p.workers
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		out, err := core.Compress(worker, core.NewBytes(frame))
		p.workers <- worker
		ch <- result{raw: frame, data: out, err: err}
	}()
	return nil
}

func (p *asyncPipeline) drain() error {
	p.wg.Wait()
	close(p.results)
	p.writeWG.Wait()
	return p.getErr()
}

// Reader decompresses a frame stream produced by Writer.
type Reader struct {
	src    *byteReader
	comp   *core.Compressor
	buf    []byte
	offset int
	done   bool
}

// NewReader wraps src; the compressor must match the one used to write.
func NewReader(src io.Reader, compressor string, opts *core.Options) (*Reader, error) {
	c, err := core.NewCompressor(compressor)
	if err != nil {
		return nil, err
	}
	if opts != nil {
		if err := c.SetOptions(opts); err != nil {
			return nil, err
		}
	}
	return &Reader{src: &byteReader{r: src}, comp: c}, nil
}

// Read implements io.Reader.
func (r *Reader) Read(p []byte) (int, error) {
	for r.offset == len(r.buf) {
		if r.done {
			return 0, io.EOF
		}
		if err := r.nextFrame(); err != nil {
			return 0, err
		}
	}
	n := copy(p, r.buf[r.offset:])
	r.offset += n
	return n, nil
}

func (r *Reader) nextFrame() error {
	rawLen, err := binary.ReadUvarint(r.src)
	if err != nil {
		return err
	}
	if rawLen == 0 {
		r.done = true
		return nil
	}
	compLen, err := binary.ReadUvarint(r.src)
	if err != nil {
		return err
	}
	if rawLen > 1<<32 || compLen > 1<<32 {
		return ErrCorrupt
	}
	payload := make([]byte, compLen)
	if _, err := io.ReadFull(r.src, payload); err != nil {
		return err
	}
	out := core.NewEmpty(core.DTypeByte, 0)
	if err := r.comp.Decompress(core.NewBytes(payload), out); err != nil {
		return err
	}
	if out.ByteLen() != rawLen {
		return fmt.Errorf("%w: frame decoded to %d bytes, want %d", ErrCorrupt, out.ByteLen(), rawLen)
	}
	r.buf = out.Bytes()
	r.offset = 0
	return nil
}

type byteReader struct {
	r io.Reader
}

func (b *byteReader) Read(p []byte) (int, error) { return b.r.Read(p) }
func (b *byteReader) ReadByte() (byte, error) {
	var one [1]byte
	if _, err := io.ReadFull(b.r, one[:]); err != nil {
		return 0, err
	}
	return one[0], nil
}

// CompressAsync launches a compression in the background and returns a
// channel delivering the result — the minimal asynchronous API of §VIII.
// The compressor handle is cloned, so the caller may keep using it.
func CompressAsync(c *core.Compressor, in *core.Data) <-chan AsyncResult {
	ch := make(chan AsyncResult, 1)
	worker := c.Clone()
	go func() {
		out, err := core.Compress(worker, in)
		ch <- AsyncResult{Data: out, Err: err}
	}()
	return ch
}

// AsyncResult is the outcome of CompressAsync.
type AsyncResult struct {
	Data *core.Data
	Err  error
}
