package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"
)

// ContentType is the negotiated media type for binary frames. A
// request carrying it is decoded as a binary frame, and its response
// (success or error) is rendered as a binary frame too; every other
// request stays on the JSON surface.
const ContentType = "application/x-pbc-binary"

// IsContentType reports whether a Content-Type header value names the
// binary protocol; media-type parameters are ignored.
func IsContentType(ct string) bool {
	if i := strings.IndexByte(ct, ';'); i >= 0 {
		ct = strings.TrimSpace(ct[:i])
	}
	return ct == ContentType
}

// Shape tags (frame byte 3).
const (
	TCoordRequest byte = iota + 1
	TCoordResponse
	TPlanRequest
	TPlanResponse
	TScheduleRequest
	TScheduleResponse
	TError
	// Tree shapes were added after TError; appending keeps every
	// pre-existing tag value stable on the wire.
	TTreeRequest
	TTreeResponse
)

// Version is the frame format version (frame byte 2).
const Version byte = 1

// headerLen is magic(2) + version(1) + tag(1) + payload length(4).
const headerLen = 8

// MaxFrame bounds an encoded frame; it matches allocsvc's request body
// cap, so a frame that decodes is also one the service would admit.
const MaxFrame = 1 << 20

// Decode errors. Malformed input always surfaces as ErrMalformed (with
// detail); it never panics and never reads past the buffer.
var (
	ErrMalformed = errors.New("wire: malformed frame")
	errTooShort  = fmt.Errorf("%w: truncated", ErrMalformed)
)

// ErrFrameTooLarge reports that a value cannot be encoded within the
// frame format's limits: the whole frame would exceed MaxFrame, or a
// string field would exceed the 64 KiB length prefix. Encoders return
// it (match with errors.Is) instead of ever truncating silently; the
// caller decides whether to fail the request or fall back to a
// different encoding (allocclient demotes the request to JSON).
var ErrFrameTooLarge = errors.New("wire: frame exceeds encoding limits")

func malformed(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrMalformed, fmt.Sprintf(format, args...))
}

// bufPool recycles encode/read buffers across requests; the hot path
// gets and puts one buffer per direction and allocates nothing once
// the pool is warm.
var bufPool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 1024)
		return &b
	},
}

// GetBuf returns a pooled buffer with length 0. Append to it, use the
// result, then hand it back with PutBuf.
func GetBuf() *[]byte {
	b := bufPool.Get().(*[]byte)
	*b = (*b)[:0]
	return b
}

// PutBuf recycles a buffer obtained from GetBuf. Oversized buffers
// (a giant schedule round) are dropped instead of pinning their
// backing arrays in the pool.
func PutBuf(b *[]byte) {
	if b == nil || cap(*b) > MaxFrame {
		return
	}
	bufPool.Put(b)
}

// --- encoding primitives (append style, no intermediate buffers) ---

// beginFrame appends the frame header with a zero length and returns
// the offset where the payload begins; endFrame patches the length.
func beginFrame(dst []byte, tag byte) ([]byte, int) {
	dst = append(dst, 'p', 'B', Version, tag, 0, 0, 0, 0)
	return dst, len(dst)
}

func endFrame(dst []byte, payloadStart int) []byte {
	binary.LittleEndian.PutUint32(dst[payloadStart-4:payloadStart], uint32(len(dst)-payloadStart))
	return dst
}

func appendBool(dst []byte, v bool) []byte {
	if v {
		return append(dst, 1)
	}
	return append(dst, 0)
}

func appendU16(dst []byte, v uint16) []byte {
	return append(dst, byte(v), byte(v>>8))
}

func appendU32(dst []byte, v uint32) []byte {
	return append(dst, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}

func appendF64(dst []byte, v float64) []byte {
	bits := math.Float64bits(v)
	return append(dst,
		byte(bits), byte(bits>>8), byte(bits>>16), byte(bits>>24),
		byte(bits>>32), byte(bits>>40), byte(bits>>48), byte(bits>>56))
}

// enc accumulates one frame with sticky error semantics: the first
// limit violation (oversized string field, frame past MaxFrame) records
// ErrFrameTooLarge and finish rewinds the partial frame, so a failed
// encode never leaves truncated bytes behind. The struct never escapes
// its Append* caller, keeping the hot path allocation-free.
type enc struct {
	b     []byte
	start int // frame header offset, for rewinding on error
	err   error
}

func beginEnc(dst []byte, tag byte) (enc, int) {
	start := len(dst)
	dst, p := beginFrame(dst, tag)
	return enc{b: dst, start: start}, p
}

func (e *enc) bool(v bool) {
	if e.err == nil {
		e.b = appendBool(e.b, v)
	}
}

func (e *enc) u16(v uint16) {
	if e.err == nil {
		e.b = appendU16(e.b, v)
	}
}

func (e *enc) u32(v uint32) {
	if e.err == nil {
		e.b = appendU32(e.b, v)
	}
}

func (e *enc) f64(v float64) {
	if e.err == nil {
		e.b = appendF64(e.b, v)
	}
}

func (e *enc) str(s string) {
	if e.err != nil {
		return
	}
	if len(s) > math.MaxUint16 {
		e.err = fmt.Errorf("%w: string field is %d bytes, cap %d", ErrFrameTooLarge, len(s), math.MaxUint16)
		return
	}
	e.b = appendU16(e.b, uint16(len(s)))
	e.b = append(e.b, s...)
}

// finish validates the frame against MaxFrame, patches the length, and
// returns the extended buffer. On any error the buffer is rewound to
// its pre-frame length: callers get back exactly what they passed in.
func (e *enc) finish(payloadStart int) ([]byte, error) {
	if e.err == nil && len(e.b)-e.start > MaxFrame {
		e.err = fmt.Errorf("%w: encoded frame is %d bytes, cap %d", ErrFrameTooLarge, len(e.b)-e.start, MaxFrame)
	}
	if e.err != nil {
		return e.b[:e.start], e.err
	}
	return endFrame(e.b, payloadStart), nil
}

// --- decoding primitives ---

// reader is a bounds-checked cursor over one frame payload. Every
// accessor reports errTooShort instead of reading past the end, so a
// malformed frame can never panic or over-read.
type reader struct {
	b   []byte
	off int
	err error
}

func (r *reader) fail() {
	if r.err == nil {
		r.err = errTooShort
	}
}

func (r *reader) remaining() int { return len(r.b) - r.off }

func (r *reader) bool() bool {
	if r.err != nil || r.off+1 > len(r.b) {
		r.fail()
		return false
	}
	v := r.b[r.off]
	r.off++
	if v > 1 {
		if r.err == nil {
			r.err = malformed("bool byte %d", v)
		}
		return false
	}
	return v == 1
}

func (r *reader) u16() uint16 {
	if r.err != nil || r.off+2 > len(r.b) {
		r.fail()
		return 0
	}
	v := binary.LittleEndian.Uint16(r.b[r.off:])
	r.off += 2
	return v
}

func (r *reader) u32() uint32 {
	if r.err != nil || r.off+4 > len(r.b) {
		r.fail()
		return 0
	}
	v := binary.LittleEndian.Uint32(r.b[r.off:])
	r.off += 4
	return v
}

func (r *reader) f64() float64 {
	if r.err != nil || r.off+8 > len(r.b) {
		r.fail()
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(r.b[r.off:]))
	r.off += 8
	return v
}

// str decodes a length-prefixed string, interning catalog vocabulary
// so the hot path allocates nothing for known names.
func (r *reader) str() string {
	n := int(r.u16())
	if r.err != nil || r.off+n > len(r.b) {
		r.fail()
		return ""
	}
	s := internBytes(r.b[r.off : r.off+n])
	r.off += n
	return s
}

// count decodes a repeated-section count and validates it against the
// bytes actually remaining (each element occupies at least minElem
// bytes), so a malformed frame cannot force a huge allocation.
func (r *reader) count(minElem int) int {
	n := r.u32()
	if r.err != nil {
		return 0
	}
	if int64(n)*int64(minElem) > int64(r.remaining()) {
		r.err = malformed("count %d exceeds remaining %d bytes", n, r.remaining())
		return 0
	}
	return int(n)
}

// openFrame validates the header against the expected shape tag and
// returns a payload reader.
func openFrame(data []byte, tag byte) (reader, error) {
	if len(data) < headerLen {
		return reader{}, errTooShort
	}
	if data[0] != 'p' || data[1] != 'B' {
		return reader{}, malformed("bad magic %q", data[:2])
	}
	if data[2] != Version {
		return reader{}, malformed("unsupported version %d", data[2])
	}
	if data[3] != tag {
		return reader{}, malformed("shape tag %d, want %d", data[3], tag)
	}
	n := binary.LittleEndian.Uint32(data[4:8])
	if n > MaxFrame {
		return reader{}, malformed("payload length %d exceeds cap", n)
	}
	if int(n) != len(data)-headerLen {
		return reader{}, malformed("payload length %d for %d body bytes", n, len(data)-headerLen)
	}
	return reader{b: data[headerLen:]}, nil
}

// closeFrame asserts the payload was consumed exactly.
func (r *reader) closeFrame() error {
	if r.err != nil {
		return r.err
	}
	if r.off != len(r.b) {
		return malformed("%d trailing payload bytes", len(r.b)-r.off)
	}
	return nil
}

// Tag peeks a frame's shape tag without decoding it.
func Tag(data []byte) (byte, error) {
	if len(data) < headerLen {
		return 0, errTooShort
	}
	if data[0] != 'p' || data[1] != 'B' {
		return 0, malformed("bad magic %q", data[:2])
	}
	if t := data[3]; t >= TCoordRequest && t <= TTreeResponse {
		return t, nil
	}
	return 0, malformed("unknown shape tag %d", data[3])
}
