// Package wire is the codec for the binary columnar page a cursor fetch
// returns when the request carries "Accept: application/vnd.flock.page".
// It is the only place that knows the frame layout; the server appends
// column slices through an Encoder and the SDK decodes into a reusable
// Page, and neither holds a byte offset.
//
// Frame, version 1 (all integers little-endian):
//
//	offset  size   field
//	0       4      magic "FLKP"
//	4       1      version (1)
//	5       1      flags: bit 0 = done (the cursor is drained and released)
//	6       2      ncols (u16)
//	8       ncols  one type tag per column: 1 int64, 2 float64, 3 string, 4 bool
//	...            zero or more chunks, to the end of the frame
//
// A chunk is a u32 row count n (n > 0) followed, per column in tag order,
// by n int64 values, n float64 bit patterns, n bool bytes (0 or 1), or for
// a string column n u32 byte lengths and then the concatenated bytes. A
// page's rows are its chunks' rows in order; a page spanning two engine
// batches is two chunks, so the server never copies rows together.
//
// There is no null mask: engine storage has no null bitmap, so a result
// column cannot hold NULL. The version byte is where one goes when that
// changes; a decoder rejects every version it was not built for.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// ContentType names the page format in Accept and Content-Type headers.
const ContentType = "application/vnd.flock.page"

// Version is the frame version this package writes and the only one it
// reads.
const Version = 1

const (
	magic      = "FLKP"
	offVersion = 4
	offFlags   = 5
	offNcols   = 6
	headerLen  = 8 // magic + version + flags + ncols
	flagDone   = 1
)

// Type tags a column's cell type.
type Type uint8

const (
	Int64 Type = 1 + iota
	Float64
	String
	Bool
)

// String names the Go type a column of this Type decodes into.
func (t Type) String() string {
	switch t {
	case Int64:
		return "int64"
	case Float64:
		return "float64"
	case String:
		return "string"
	case Bool:
		return "bool"
	}
	return fmt.Sprintf("wire.Type(%d)", uint8(t))
}

// Encoder builds one page at a time into a buffer it keeps across pages:
// Begin, then per chunk Rows followed by one Ints/Floats/Strings/Bools
// call per column in column order, then Finish. A call that does not fit
// the declared columns makes Finish fail instead of producing a frame no
// decoder accepts. The zero value is ready to use.
type Encoder struct {
	buf   []byte
	ncols int
	n     int // rows per column in the open chunk
	col   int // next column of the open chunk; == ncols between chunks
	err   error
}

// Begin starts a page whose columns have the given types.
func (e *Encoder) Begin(types []Type) {
	e.buf = append(e.buf[:0], magic...)
	e.buf = append(e.buf, Version, 0)
	e.buf = binary.LittleEndian.AppendUint16(e.buf, uint16(len(types)))
	for _, t := range types {
		e.buf = append(e.buf, byte(t))
	}
	e.ncols, e.col, e.n, e.err = len(types), len(types), 0, nil
	if len(types) > math.MaxUint16 {
		e.err = fmt.Errorf("wire: %d columns exceed the frame's limit of %d", len(types), math.MaxUint16)
	}
}

// Rows opens a chunk of n rows. A chunk of no rows is not written.
func (e *Encoder) Rows(n int) {
	switch {
	case e.err != nil:
	case e.col != e.ncols:
		e.err = fmt.Errorf("wire: chunk opened with %d of %d columns of the previous one written", e.col, e.ncols)
	case n < 0 || n > math.MaxUint32:
		e.err = fmt.Errorf("wire: chunk of %d rows", n)
	case e.ncols == 0 && n > 0:
		e.err = errors.New("wire: rows without columns")
	case n == 0:
		e.n = 0
	default:
		e.buf = binary.LittleEndian.AppendUint32(e.buf, uint32(n))
		e.n, e.col = n, 0
	}
}

// column checks that the next column of the open chunk has type t and n
// values, and advances to the one after it.
func (e *Encoder) column(t Type, n int) bool {
	if e.err != nil || (e.n == 0 && n == 0) {
		return false // failed already, or the empty chunk Rows(0) skipped
	}
	if e.col >= e.ncols || Type(e.buf[headerLen+e.col]) != t || n != e.n {
		e.err = fmt.Errorf("wire: %d %s values do not fit column %d of a %d-row chunk", n, t, e.col, e.n)
		return false
	}
	e.col++
	return true
}

// Ints appends the open chunk's next column.
func (e *Encoder) Ints(v []int64) {
	if e.column(Int64, len(v)) {
		for _, x := range v {
			e.buf = binary.LittleEndian.AppendUint64(e.buf, uint64(x))
		}
	}
}

// Floats appends the open chunk's next column, bit for bit: ±Inf, NaN
// payloads and -0.0 survive.
func (e *Encoder) Floats(v []float64) {
	if e.column(Float64, len(v)) {
		for _, x := range v {
			e.buf = binary.LittleEndian.AppendUint64(e.buf, math.Float64bits(x))
		}
	}
}

// Strings appends the open chunk's next column.
func (e *Encoder) Strings(v []string) {
	if !e.column(String, len(v)) {
		return
	}
	for _, s := range v {
		if len(s) > math.MaxUint32 {
			e.err = fmt.Errorf("wire: string of %d bytes", len(s))
			return
		}
		e.buf = binary.LittleEndian.AppendUint32(e.buf, uint32(len(s)))
	}
	for _, s := range v {
		e.buf = append(e.buf, s...)
	}
}

// Bools appends the open chunk's next column.
func (e *Encoder) Bools(v []bool) {
	if e.column(Bool, len(v)) {
		for _, x := range v {
			b := byte(0)
			if x {
				b = 1
			}
			e.buf = append(e.buf, b)
		}
	}
}

// Finish completes the page and returns the frame, which is valid until
// the next Begin.
func (e *Encoder) Finish(done bool) ([]byte, error) {
	if e.err == nil && e.col != e.ncols {
		e.err = fmt.Errorf("wire: page finished with %d of %d columns of its last chunk written", e.col, e.ncols)
	}
	if e.err != nil {
		return nil, e.err
	}
	if done {
		e.buf[offFlags] |= flagDone
	}
	return e.buf, nil
}

// Cap reports the capacity of the encoder's buffer, for a pool deciding
// whether to keep it.
func (e *Encoder) Cap() int { return cap(e.buf) }

// Column is one decoded column: the slice matching Type holds the page's
// values.
type Column struct {
	Type   Type
	Ints   []int64
	Floats []float64
	Strs   []string
	Bools  []bool
}

// Page is a decoded page. Decode reuses the column slices of the previous
// page, so a Page kept across fetches stops allocating once warm, except
// for one string per string column per chunk that its values slice.
type Page struct {
	Done bool
	N    int // rows
	Cols []Column
}

// Decode replaces p with the page in frame. Every count and length is
// checked against the bytes that remain before anything is allocated or
// sliced, so a hostile frame yields an error and never an allocation
// beyond a small multiple of len(frame). On error p holds no rows.
func (p *Page) Decode(frame []byte) error {
	err := p.decode(frame)
	if err != nil {
		p.Done, p.N, p.Cols = false, 0, p.Cols[:0]
	}
	return err
}

func (p *Page) decode(frame []byte) error {
	p.Done, p.N = false, 0
	if len(frame) < headerLen || string(frame[:len(magic)]) != magic {
		return errors.New("wire: not a page frame")
	}
	if v := frame[offVersion]; v != Version {
		return fmt.Errorf("wire: page version %d, this build reads only version %d", v, Version)
	}
	flags := frame[offFlags]
	if flags&^flagDone != 0 {
		return fmt.Errorf("wire: unknown page flags %#x", flags)
	}
	ncols := int(binary.LittleEndian.Uint16(frame[offNcols:]))
	rest := frame[headerLen:]
	if ncols > len(rest) {
		return fmt.Errorf("wire: %d columns declared, %d bytes remain", ncols, len(rest))
	}
	if cap(p.Cols) < ncols {
		p.Cols = append(p.Cols[:cap(p.Cols)], make([]Column, ncols-cap(p.Cols))...)
	}
	p.Cols = p.Cols[:ncols]
	for i := range p.Cols {
		c := &p.Cols[i]
		c.Type = Type(rest[i])
		if c.Type < Int64 || c.Type > Bool {
			return fmt.Errorf("wire: column %d has unknown type tag %d", i, rest[i])
		}
		c.Ints, c.Floats, c.Strs, c.Bools = c.Ints[:0], c.Floats[:0], c.Strs[:0], c.Bools[:0]
	}
	rest = rest[ncols:]

	for len(rest) > 0 {
		if len(rest) < 4 {
			return errors.New("wire: truncated chunk header")
		}
		n := uint64(binary.LittleEndian.Uint32(rest))
		rest = rest[4:]
		if n == 0 || ncols == 0 {
			return errors.New("wire: empty chunk")
		}
		for i := range p.Cols {
			c := &p.Cols[i]
			width := uint64(8)
			switch c.Type {
			case String:
				width = 4
			case Bool:
				width = 1
			}
			if n*width > uint64(len(rest)) {
				return fmt.Errorf("wire: column %d: %d %s values declared, %d bytes remain", i, n, c.Type, len(rest))
			}
			fixed := rest[:n*width]
			rest = rest[n*width:]
			switch c.Type {
			case Int64:
				for ; len(fixed) > 0; fixed = fixed[8:] {
					c.Ints = append(c.Ints, int64(binary.LittleEndian.Uint64(fixed)))
				}
			case Float64:
				for ; len(fixed) > 0; fixed = fixed[8:] {
					c.Floats = append(c.Floats, math.Float64frombits(binary.LittleEndian.Uint64(fixed)))
				}
			case Bool:
				for _, b := range fixed {
					if b > 1 {
						return fmt.Errorf("wire: column %d: bool byte %#x", i, b)
					}
					c.Bools = append(c.Bools, b == 1)
				}
			case String:
				var total uint64
				for l := fixed; len(l) > 0; l = l[4:] {
					total += uint64(binary.LittleEndian.Uint32(l))
				}
				if total > uint64(len(rest)) {
					return fmt.Errorf("wire: column %d: %d string bytes declared, %d remain", i, total, len(rest))
				}
				blob := string(rest[:total]) // the column's one allocation for this chunk
				rest = rest[total:]
				for off := 0; len(fixed) > 0; fixed = fixed[4:] {
					l := int(binary.LittleEndian.Uint32(fixed))
					c.Strs = append(c.Strs, blob[off:off+l])
					off += l
				}
			}
		}
		p.N += int(n)
	}
	p.Done = flags&flagDone != 0
	return nil
}
