// Package binenc implements the little-endian primitives shared by the
// binary artifact (bundle) and wire (row-batch) formats: an append-based
// encoder over a plain byte slice and a bounds-checked, sticky-error
// decoder. Both sides are allocation-free for fixed-size fields; slice
// reads validate their element counts against the remaining bytes before
// allocating, so a hostile length prefix can never demand more memory
// than the payload it arrived in.
//
// All multi-byte values are little-endian. Floats travel as IEEE-754
// bit patterns (math.Float64bits), so an encode/decode round trip is
// bit-exact — the property the cross-codec golden tests pin.
package binenc

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// Typed decode failures. Every decoder in this package (and the formats
// built on it) returns one of these wrapped — never a panic — so callers
// can map malformed input to a 4xx-class rejection.
var (
	// ErrTruncated marks input that ended before a declared field.
	ErrTruncated = errors.New("binenc: truncated input")
	// ErrOverflow marks a length or count prefix that exceeds what the
	// remaining bytes could possibly hold.
	ErrOverflow = errors.New("binenc: length prefix exceeds remaining input")
	// ErrNonFinite marks a NaN or Inf in a payload that requires finite
	// values.
	ErrNonFinite = errors.New("binenc: non-finite value in payload")
)

// AppendU8 appends one byte.
func AppendU8(dst []byte, v uint8) []byte { return append(dst, v) }

// AppendU16 appends v little-endian.
func AppendU16(dst []byte, v uint16) []byte { return binary.LittleEndian.AppendUint16(dst, v) }

// AppendU32 appends v little-endian.
func AppendU32(dst []byte, v uint32) []byte { return binary.LittleEndian.AppendUint32(dst, v) }

// AppendU64 appends v little-endian.
func AppendU64(dst []byte, v uint64) []byte { return binary.LittleEndian.AppendUint64(dst, v) }

// AppendI64 appends v as its two's-complement little-endian bits.
func AppendI64(dst []byte, v int64) []byte { return AppendU64(dst, uint64(v)) }

// AppendF64 appends v as its IEEE-754 little-endian bit pattern.
func AppendF64(dst []byte, v float64) []byte { return AppendU64(dst, math.Float64bits(v)) }

// AppendBool appends 1 or 0.
func AppendBool(dst []byte, v bool) []byte {
	if v {
		return append(dst, 1)
	}
	return append(dst, 0)
}

// AppendF64s appends a u32 element count followed by the raw float bits.
func AppendF64s(dst []byte, vs []float64) []byte {
	dst = AppendU32(dst, uint32(len(vs)))
	return AppendF64sRaw(dst, vs)
}

// AppendF64sRaw appends the raw float bits with no count prefix (for
// payloads whose shape lives in a header).
func AppendF64sRaw(dst []byte, vs []float64) []byte {
	for _, v := range vs {
		dst = AppendF64(dst, v)
	}
	return dst
}

// AppendI32s appends a u32 element count followed by int32 values.
func AppendI32s(dst []byte, vs []int) []byte {
	dst = AppendU32(dst, uint32(len(vs)))
	for _, v := range vs {
		dst = AppendU32(dst, uint32(int32(v)))
	}
	return dst
}

// AppendString appends a u16 byte length followed by the string bytes.
func AppendString(dst []byte, s string) []byte {
	dst = AppendU16(dst, uint16(len(s)))
	return append(dst, s...)
}

// Reader is a bounds-checked sticky-error decoder over a byte slice.
// After the first failure every read returns a zero value and Err keeps
// reporting the original error; callers may decode a whole structure and
// check once at the end.
type Reader struct {
	data []byte
	off  int
	err  error
}

// NewReader wraps data for decoding. The slice is read, never written.
func NewReader(data []byte) *Reader { return &Reader{data: data} }

// Reset re-aims the reader at data and clears any sticky error, so a
// stack- or pool-held Reader can be reused without allocating.
func (r *Reader) Reset(data []byte) {
	r.data = data
	r.off = 0
	r.err = nil
}

// Err returns the first decode failure, or nil.
func (r *Reader) Err() error { return r.err }

// Remaining returns the number of unread bytes.
func (r *Reader) Remaining() int { return len(r.data) - r.off }

// fail records the first error with positional context.
func (r *Reader) fail(err error) {
	if r.err == nil {
		r.err = fmt.Errorf("%w (at byte %d of %d)", err, r.off, len(r.data))
	}
}

// take reserves n bytes, or fails with ErrTruncated.
func (r *Reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || r.Remaining() < n {
		r.fail(ErrTruncated)
		return nil
	}
	b := r.data[r.off : r.off+n]
	r.off += n
	return b
}

// U8 reads one byte.
func (r *Reader) U8() uint8 {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// U16 reads a little-endian uint16.
func (r *Reader) U16() uint16 {
	b := r.take(2)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint16(b)
}

// U32 reads a little-endian uint32.
func (r *Reader) U32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

// U64 reads a little-endian uint64.
func (r *Reader) U64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// I64 reads a little-endian int64.
func (r *Reader) I64() int64 { return int64(r.U64()) }

// F64 reads an IEEE-754 little-endian float64.
func (r *Reader) F64() float64 { return math.Float64frombits(r.U64()) }

// Bool reads one byte as a boolean (any nonzero value is true).
func (r *Reader) Bool() bool { return r.U8() != 0 }

// Count reads a u32 element count and validates that count*elemBytes
// still fits in the remaining input, failing with ErrOverflow otherwise.
// This is the guard that keeps a hostile prefix from driving a huge
// allocation or a dim-overflow panic downstream.
func (r *Reader) Count(elemBytes int) int {
	n := int(r.U32())
	if r.err != nil {
		return 0
	}
	if n < 0 || elemBytes > 0 && n > r.Remaining()/elemBytes {
		r.fail(ErrOverflow)
		return 0
	}
	return n
}

// F64s reads a u32 count followed by that many floats into a fresh slice.
func (r *Reader) F64s() []float64 {
	n := r.Count(8)
	if r.err != nil {
		return nil
	}
	out := make([]float64, n)
	r.F64sInto(out)
	return out
}

// F64sInto fills dst from the input with no count prefix.
func (r *Reader) F64sInto(dst []float64) {
	b := r.take(len(dst) * 8)
	if b == nil {
		return
	}
	for i := range dst {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[i*8:]))
	}
}

// FiniteF64s is F64s plus a finiteness scan: any NaN or Inf fails the
// reader with ErrNonFinite.
func (r *Reader) FiniteF64s() []float64 {
	vs := r.F64s()
	if r.err == nil && !AllFinite(vs) {
		r.fail(ErrNonFinite)
		return nil
	}
	return vs
}

// I32s reads a u32 count followed by that many int32 values.
func (r *Reader) I32s() []int {
	n := r.Count(4)
	if r.err != nil {
		return nil
	}
	out := make([]int, n)
	for i := range out {
		out[i] = int(int32(r.U32()))
	}
	return out
}

// Bytes reads n raw bytes, returning a subslice of the input (no copy).
// Negative or over-long n fails with ErrTruncated.
func (r *Reader) Bytes(n int) []byte { return r.take(n) }

// String reads a u16 byte length followed by the string bytes.
func (r *Reader) String() string {
	n := int(r.U16())
	if r.err != nil {
		return ""
	}
	if n > r.Remaining() {
		r.fail(ErrOverflow)
		return ""
	}
	return string(r.take(n))
}

// AllFinite reports whether every value is neither NaN nor Inf.
func AllFinite(vs []float64) bool {
	for _, v := range vs {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}
