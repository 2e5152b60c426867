package serve

import (
	"io"
	"strings"
	"sync"
)

// HTTP-side wiring for the row-batch codec: content negotiation and the
// pooled per-request buffers that make the binary path allocation-light.

// DegradedHeader is set to "true" on passthrough responses in both codecs,
// so binary clients (whose degraded bit lives inside the payload) and
// proxies can spot degradation without parsing the body.
const DegradedHeader = "X-Netdrift-Degraded"

// Codec labels used on the per-codec serve metrics.
const (
	codecJSON   = "json"
	codecBinary = "binary"
)

// wantBinaryResponse decides the response codec: binary when the client
// asks for it via Accept, JSON when Accept names JSON, and otherwise
// symmetric with the request codec.
func wantBinaryResponse(accept string, binaryReq bool) bool {
	if strings.Contains(accept, ContentTypeRows) {
		return true
	}
	if strings.Contains(accept, "application/json") {
		return false
	}
	return binaryReq
}

// adaptBuf carries one request's reusable storage: the raw body bytes, the
// decoded row matrix, and the encoded response. Pooled so a warm server
// runs the binary hot path without per-request growth.
//
// Recycling rule: a buffer whose rows were submitted to the coalescer may
// be pooled again only when Submit's return proves the executor is
// finished with them — a result (or error) delivered through the request's
// done channel, or a pre-enqueue rejection. When Submit returns because
// the caller's context died, the executor may still be reading the row
// slices, so the buffer must be dropped to the GC instead.
type adaptBuf struct {
	body []byte
	rows RowBuf
	resp []byte
}

var adaptBufPool = sync.Pool{
	New: func() any { return &adaptBuf{body: make([]byte, 0, 64<<10)} },
}

// readBody slurps r into the buffer's byte storage, reusing capacity.
func (b *adaptBuf) readBody(r io.Reader) ([]byte, error) {
	b.body = b.body[:0]
	for {
		if len(b.body) == cap(b.body) {
			b.body = append(b.body, 0)[:len(b.body)]
		}
		n, err := r.Read(b.body[len(b.body):cap(b.body)])
		b.body = b.body[:len(b.body)+n]
		if err == io.EOF {
			return b.body, nil
		}
		if err != nil {
			return b.body, err
		}
	}
}

// countingReader tallies bytes read, for the request-size histogram on the
// streaming JSON path.
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// countingWriter tallies bytes written, for the response-size histogram on
// the streaming JSON path.
type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}
