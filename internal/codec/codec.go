// Package codec is the repository's one binary layout: little-endian
// fixed-width integers, IEEE-754 float64 bits, strings behind a u16
// length prefix, and points and rectangles as their coordinates (a
// rectangle as its min then its max corner). The wire bodies of
// internal/protocol and the server's snapshot are both written by an
// Encoder and read by a Decoder, so server state has one format on the
// network and on disk.
package codec

import (
	"encoding/binary"
	"errors"
	"math"

	"repro/internal/geo"
)

// MaxStrLen is the longest string Str encodes whole: its length prefix is
// a u16. Writers that must not lose bytes refuse longer strings up front.
const MaxStrLen = 0xffff

// Encoder builds a payload. The zero value is ready to use.
type Encoder struct {
	buf []byte
}

// Bytes returns the accumulated payload.
func (e *Encoder) Bytes() []byte { return e.buf }

// Grow reserves capacity for at least n more bytes, so a caller that
// knows its payload size pays one allocation instead of a doubling
// cascade. Growth is geometric: a sequence of small exact Grows (one
// per sub-list of a response) must amortize like append, not trigger a
// copy each.
func (e *Encoder) Grow(n int) {
	if free := cap(e.buf) - len(e.buf); free < n {
		want := len(e.buf) + n
		if min := 2 * cap(e.buf); want < min {
			want = min
		}
		nb := make([]byte, len(e.buf), want)
		copy(nb, e.buf)
		e.buf = nb
	}
}

// U8 appends one byte.
func (e *Encoder) U8(v byte) *Encoder { e.buf = append(e.buf, v); return e }

// Bool appends a flag byte.
func (e *Encoder) Bool(v bool) *Encoder {
	if v {
		return e.U8(1)
	}
	return e.U8(0)
}

// U16 appends a little-endian uint16.
func (e *Encoder) U16(v uint16) *Encoder {
	e.buf = binary.LittleEndian.AppendUint16(e.buf, v)
	return e
}

// U32 appends a little-endian uint32.
func (e *Encoder) U32(v uint32) *Encoder {
	e.buf = binary.LittleEndian.AppendUint32(e.buf, v)
	return e
}

// U64 appends a little-endian uint64.
func (e *Encoder) U64(v uint64) *Encoder {
	e.buf = binary.LittleEndian.AppendUint64(e.buf, v)
	return e
}

// F64 appends an IEEE-754 float64.
func (e *Encoder) F64(v float64) *Encoder { return e.U64(math.Float64bits(v)) }

// Str appends a length-prefixed string, cut to its first MaxStrLen bytes.
func (e *Encoder) Str(s string) *Encoder {
	if len(s) > MaxStrLen {
		s = s[:MaxStrLen]
	}
	e.U16(uint16(len(s)))
	e.buf = append(e.buf, s...)
	return e
}

// Raw appends b verbatim, with no length prefix.
func (e *Encoder) Raw(b []byte) *Encoder { e.buf = append(e.buf, b...); return e }

// Point appends a point.
func (e *Encoder) Point(p geo.Point) *Encoder { return e.F64(p.X).F64(p.Y) }

// Rect appends a rectangle.
func (e *Encoder) Rect(r geo.Rect) *Encoder { return e.Point(r.Min).Point(r.Max) }

// ErrShortPayload reports a truncated or malformed payload.
var ErrShortPayload = errors.New("codec: short or malformed payload")

// Decoder consumes a payload; the first decoding error sticks and every
// subsequent read returns zero values, so call Err once at the end.
type Decoder struct {
	buf  []byte
	off  int
	err  error
	last string // the string Str read last
}

// NewDecoder wraps a payload.
func NewDecoder(buf []byte) *Decoder { return &Decoder{buf: buf} }

// MakeDecoder returns a Decoder over buf by value, so a caller that keeps
// it on its stack allocates nothing. A non-nil err is its sticky error
// from the start: every read yields a zero value and Err returns err.
func MakeDecoder(buf []byte, err error) Decoder { return Decoder{buf: buf, err: err} }

// Err returns the sticky error, nil if all reads were in bounds.
func (d *Decoder) Err() error { return d.err }

// Remaining returns the number of unread bytes.
func (d *Decoder) Remaining() int { return len(d.buf) - d.off }

func (d *Decoder) take(n int) []byte {
	// A negative n converts to a huge uint, so it fails the bound too.
	if d.err != nil || uint(n) > uint(len(d.buf)-d.off) {
		if d.err == nil {
			d.err = ErrShortPayload
		}
		return nil
	}
	b := d.buf[d.off : d.off+n]
	d.off += n
	return b
}

// Skip steps over n bytes.
func (d *Decoder) Skip(n int) { d.take(n) }

// U8 reads one byte.
func (d *Decoder) U8() byte {
	b := d.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// Bool reads a flag byte.
func (d *Decoder) Bool() bool { return d.U8() != 0 }

// Count bounds a length prefix n just read off the wire by what the rest
// of the payload can hold at minBytes per element. A forged or truncated
// count sets the sticky error and reads as zero, so no decode loop runs
// and no list is sized from it.
func (d *Decoder) Count(n, minBytes int) int {
	if d.err == nil && n > d.Remaining()/minBytes {
		d.err = ErrShortPayload
	}
	if d.err != nil {
		return 0
	}
	return n
}

// U16 reads a uint16.
func (d *Decoder) U16() uint16 {
	b := d.take(2)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint16(b)
}

// U32 reads a uint32.
func (d *Decoder) U32() uint32 {
	b := d.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

// U64 reads a uint64.
func (d *Decoder) U64() uint64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// F64 reads a float64.
func (d *Decoder) F64() float64 { return math.Float64frombits(d.U64()) }

// Str reads a length-prefixed string. A string equal to the one read
// before it is returned as that same string instead of a fresh copy:
// object lists and query batches repeat a handful of class names, so the
// per-element allocation collapses into one per run of equal values. The
// comparison does not allocate (the compiler recognizes string(b) == s),
// so a miss costs what the copy alone would.
func (d *Decoder) Str() string {
	b := d.take(int(d.U16()))
	if b == nil {
		return ""
	}
	if string(b) != d.last {
		d.last = string(b)
	}
	return d.last
}

// Point reads a point.
func (d *Decoder) Point() geo.Point { return geo.Point{X: d.F64(), Y: d.F64()} }

// Rect reads a rectangle.
func (d *Decoder) Rect() geo.Rect { return geo.Rect{Min: d.Point(), Max: d.Point()} }
