package pio

import (
	"encoding/binary"
	"fmt"
	"os"
	"strconv"
	"strings"

	"pressio/internal/core"
	"pressio/internal/fsx"
)

// npy reads and writes the NumPy .npy array format (version 1.0,
// little-endian, C order) — the "NumPY" IO plugin of the paper.
type npy struct {
	pathConfig
}

func (n *npy) Configuration() *core.Options {
	return core.StandardConfiguration(core.ThreadSafetyMultiple, "stable", "1.0.0", false)
}

var npyMagic = []byte("\x93NUMPY")

var descrToDType = map[string]core.DType{
	"<f4": core.DTypeFloat32, "<f8": core.DTypeFloat64,
	"<i1": core.DTypeInt8, "<i2": core.DTypeInt16, "<i4": core.DTypeInt32, "<i8": core.DTypeInt64,
	"<u1": core.DTypeUint8, "<u2": core.DTypeUint16, "<u4": core.DTypeUint32, "<u8": core.DTypeUint64,
	"|i1": core.DTypeInt8, "|u1": core.DTypeUint8,
}

var dtypeToDescr = map[core.DType]string{
	core.DTypeFloat32: "<f4", core.DTypeFloat64: "<f8",
	core.DTypeInt8: "|i1", core.DTypeInt16: "<i2", core.DTypeInt32: "<i4", core.DTypeInt64: "<i8",
	core.DTypeUint8: "|u1", core.DTypeUint16: "<u2", core.DTypeUint32: "<u4", core.DTypeUint64: "<u8",
	core.DTypeByte: "|u1",
}

// ParseNPY decodes a .npy byte stream.
func ParseNPY(b []byte) (*core.Data, error) {
	if len(b) < 10 || string(b[:6]) != string(npyMagic) {
		return nil, fmt.Errorf("%w: not an npy file", ErrFormat)
	}
	major := b[6]
	if major != 1 {
		return nil, fmt.Errorf("%w: unsupported npy version %d", ErrFormat, major)
	}
	hlen := int(binary.LittleEndian.Uint16(b[8:10]))
	if len(b) < 10+hlen {
		return nil, fmt.Errorf("%w: truncated npy header", ErrFormat)
	}
	header := string(b[10 : 10+hlen])
	payload := b[10+hlen:]

	descr, err := dictValue(header, "descr")
	if err != nil {
		return nil, err
	}
	descr = strings.Trim(descr, "'\" ")
	dtype, ok := descrToDType[descr]
	if !ok {
		return nil, fmt.Errorf("%w: unsupported descr %q", ErrFormat, descr)
	}
	order, err := dictValue(header, "fortran_order")
	if err != nil {
		return nil, err
	}
	if strings.TrimSpace(order) != "False" {
		return nil, fmt.Errorf("%w: fortran_order arrays unsupported", ErrFormat)
	}
	shapeStr, err := dictValue(header, "shape")
	if err != nil {
		return nil, err
	}
	dims, err := core.ParseDims(strings.Trim(strings.TrimSpace(shapeStr), "()"))
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrFormat, err)
	}
	if len(dims) == 0 {
		dims = []uint64{1}
	}
	want := uint64(dtype.Size())
	for _, d := range dims {
		want *= d
	}
	if uint64(len(payload)) < want {
		return nil, fmt.Errorf("%w: payload %d bytes, need %d", ErrFormat, len(payload), want)
	}
	return core.NewMove(dtype, append([]byte(nil), payload[:want]...), dims...)
}

// dictValue extracts the raw value string for a key in the Python-dict
// style npy header.
func dictValue(header, key string) (string, error) {
	i := strings.Index(header, "'"+key+"'")
	if i < 0 {
		return "", fmt.Errorf("%w: missing %q in npy header", ErrFormat, key)
	}
	rest := header[i+len(key)+2:]
	colon := strings.Index(rest, ":")
	if colon < 0 {
		return "", fmt.Errorf("%w: malformed npy header", ErrFormat)
	}
	rest = rest[colon+1:]
	// Value ends at a comma that is not inside parentheses.
	depth := 0
	for j, r := range rest {
		switch r {
		case '(', '[':
			depth++
		case ')', ']':
			depth--
		case ',':
			if depth == 0 {
				return strings.TrimSpace(rest[:j]), nil
			}
		case '}':
			if depth == 0 {
				return strings.TrimSpace(rest[:j]), nil
			}
		}
	}
	return strings.TrimSpace(rest), nil
}

// FormatNPY encodes d as a .npy byte stream.
func FormatNPY(d *core.Data) ([]byte, error) {
	descr, ok := dtypeToDescr[d.DType()]
	if !ok {
		return nil, fmt.Errorf("%w: cannot store %s as npy", core.ErrInvalidDType, d.DType())
	}
	shape := make([]string, d.NumDims())
	for i, dim := range d.Dims() {
		shape[i] = strconv.FormatUint(dim, 10)
	}
	shapeStr := strings.Join(shape, ", ")
	if d.NumDims() == 1 {
		shapeStr += ","
	}
	header := fmt.Sprintf("{'descr': '%s', 'fortran_order': False, 'shape': (%s), }", descr, shapeStr)
	// Pad so that the payload starts at a multiple of 64 bytes.
	total := 10 + len(header) + 1
	pad := (64 - total%64) % 64
	header += strings.Repeat(" ", pad) + "\n"

	out := make([]byte, 0, 10+len(header)+len(d.Bytes()))
	out = append(out, npyMagic...)
	out = append(out, 1, 0)
	out = binary.LittleEndian.AppendUint16(out, uint16(len(header)))
	out = append(out, header...)
	out = append(out, d.Bytes()...)
	return out, nil
}

func (n *npy) Read(hint *core.Data) (*core.Data, error) {
	sp := ioSpan("read", "npy", n.path)
	defer sp.End()
	b, err := os.ReadFile(n.path)
	if err != nil {
		return nil, err
	}
	return ParseNPY(b)
}

func (n *npy) Write(d *core.Data) error {
	sp := ioSpan("write", "npy", n.path)
	defer sp.End()
	b, err := FormatNPY(d)
	if err != nil {
		return err
	}
	return fsx.AtomicWriteFile(n.path, b, 0o644)
}

func (n *npy) Clone() core.IOPlugin {
	clone := *n
	return &clone
}
