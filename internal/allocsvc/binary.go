package allocsvc

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"time"

	"repro/internal/wire"
)

// BinaryContentType is the negotiated media type for the binary
// protocol, re-exported so callers need not import internal/wire
// (cmd/pbc already imports the telemetry wire package under that
// name).
const BinaryContentType = wire.ContentType

// ServeBinary handles one binary request frame without the HTTP layer:
// it dispatches on the frame's shape tag, serves the request, and
// appends the response frame to dst. It returns the HTTP-equivalent
// status code, the Retry-After hint in seconds (0 when absent), and
// the extended dst. A table-covered coord or plan request completes
// with zero heap allocations once the scratch pools are warm — this is
// the function the allocs/op gate benchmarks.
func (s *Service) ServeBinary(ctx context.Context, frame, dst []byte) (code, retryAfter int, out []byte) {
	tag, err := wire.Tag(frame)
	if err != nil {
		return http.StatusBadRequest, 0, wire.AppendError(dst, http.StatusBadRequest, err.Error())
	}
	for _, rt := range routes {
		if rt.frameTag() == tag {
			return rt.serveFrame(s, ctx, frame, dst)
		}
	}
	return http.StatusBadRequest, 0,
		wire.AppendError(dst, http.StatusBadRequest, "frame is not a request shape")
}

// serveBinaryHTTP is the HTTP shim over a route's binary handler: it
// enforces negotiation rules, reads the body through pooled buffers,
// and writes the response frame with the binary content type.
func (s *Service) serveBinaryHTTP(w http.ResponseWriter, r *http.Request, rt endpoint, start time.Time) {
	route := rt.path()
	switch {
	case rt.frameTag() == 0:
		s.reply(w, route, jsonEncoding.errorResponse(http.StatusUnsupportedMediaType,
			"binary protocol not supported on "+route+"; send JSON"), start)
		return
	case !s.cfg.Binary:
		s.reply(w, route, jsonEncoding.errorResponse(http.StatusUnsupportedMediaType,
			"binary protocol not enabled on this server"), start)
		return
	case r.Method != http.MethodPost:
		s.reply(w, route, methodNotAllowed(binaryEncoding, r), start)
		return
	}
	buf := wire.GetBuf()
	body, err := readBinaryBody(r.Body, (*buf)[:0])
	*buf = body
	if err != nil {
		wire.PutBuf(buf)
		code := errorCode(err)
		if code == http.StatusInternalServerError {
			code = http.StatusBadRequest // unreadable body is the client's fault
		}
		s.reply(w, route, binaryEncoding.errorResponse(code, err.Error()), start)
		return
	}
	out := wire.GetBuf()
	code, retryAfter, rendered := rt.serveFrame(s, r.Context(), body, (*out)[:0])
	*out = rendered
	s.reply(w, route, &response{code: code, body: rendered, retryAfter: retryAfter, enc: binaryEncoding}, start)
	wire.PutBuf(buf)
	wire.PutBuf(out)
}

// readBinaryBody reads the whole body into buf (growing it as needed)
// with the same size cap as the JSON surface.
func readBinaryBody(body io.Reader, buf []byte) ([]byte, error) {
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := body.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if len(buf) > maxBody {
			return buf, tooLargef("binary request body exceeds %d bytes; retry as JSON", maxBody)
		}
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, fmt.Errorf("reading request body: %v", err)
		}
	}
}
