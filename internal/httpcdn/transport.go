package httpcdn

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// transport is the engine's upstream http.RoundTripper: plain HTTP/1.1
// over kept-alive connections, with each round trip run wholly on the
// caller's goroutine. net/http's Transport hands every request to a
// connection's write loop and every response to its read loop, two
// goroutine wake-ups per fetch that a miss waits on; here the serving
// goroutine writes the request, parses the response and hands the
// connection back itself. The wire format is the standard library's
// (Request.Write, http.ReadResponse).
//
// There is no timer of its own. The request's context ends I/O: when it
// is done, a context.AfterFunc sets the connection's deadline in the
// past, so whatever read or write is blocked fails — after ctx.Err() is
// already set, which is how the caller tells a timeout from a dead
// upstream. A deadline taken from ctx.Deadline() would race that: the
// socket could time out before the context reports why.
type transport struct {
	dialer net.Dialer

	mu   sync.Mutex
	idle map[string][]*persistConn // by host:port, most recently used last
}

// persistConn is one upstream connection with its buffers. nread counts
// the bytes read from it, so a failed round trip can tell whether any of
// its response arrived.
type persistConn struct {
	net.Conn
	br    *bufio.Reader
	bw    *bufio.Writer
	nread int64
}

func (c *persistConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.nread += int64(n)
	return n, err
}

// aLongTimeAgo is the deadline that fails a connection's pending I/O at
// once.
var aLongTimeAgo = time.Unix(1, 0)

func newTransport() *transport {
	return &transport{idle: make(map[string][]*persistConn)}
}

// RoundTrip sends req on an idle connection to its host, or a new one.
// A kept-alive connection can have been closed by its server while it
// sat idle; when one fails before any byte of the response arrives and
// the request has no body to replay, the request is sent once more on a
// fresh connection, so a stale connection is never blamed on a healthy
// upstream.
func (t *transport) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.URL.Scheme != "http" {
		return nil, fmt.Errorf("httpcdn: unsupported upstream scheme %q", req.URL.Scheme)
	}
	addr := req.URL.Host
	if req.URL.Port() == "" {
		addr = net.JoinHostPort(req.URL.Hostname(), "80")
	}
	replayable := req.Body == nil || req.Body == http.NoBody
	ctx := req.Context()
	c := t.takeIdle(addr)
	for {
		reused := c != nil
		if !reused {
			conn, err := t.dialer.DialContext(ctx, "tcp", addr)
			if err != nil {
				return nil, err
			}
			c = &persistConn{Conn: conn}
			c.br, c.bw = bufio.NewReader(c), bufio.NewWriter(conn)
		}
		resp, nothingRead, err := t.roundTrip(ctx, c, addr, req)
		if err == nil || !reused || !nothingRead || !replayable || ctx.Err() != nil {
			return resp, err
		}
		c = nil
	}
}

// roundTrip runs one exchange on c. The returned response's body hands c
// back to the idle pool when it has been read to EOF; on error c is
// closed, and nothingRead reports that no byte of a response arrived.
func (t *transport) roundTrip(ctx context.Context, c *persistConn, addr string, req *http.Request) (resp *http.Response, nothingRead bool, err error) {
	stop := context.AfterFunc(ctx, func() { c.SetDeadline(aLongTimeAgo) })
	before := c.nread
	err = req.Write(c.bw)
	if err == nil {
		err = c.bw.Flush()
	}
	if err == nil {
		resp, err = http.ReadResponse(c.br, req)
	}
	if err != nil {
		stop()
		c.Close()
		return nil, c.nread == before, err
	}
	b := &releaseBody{ReadCloser: resp.Body, t: t, c: c, addr: addr, stop: stop, keep: !resp.Close}
	resp.Body = b
	if b.ReadCloser == http.NoBody {
		// A 304 or an empty body: the exchange is already complete.
		b.release(b.keep)
	}
	return resp, false, nil
}

// releaseBody is a response body that gives its connection back once the
// response has been read to EOF. A Close before EOF closes the
// connection instead of draining what is left, which may be unbounded.
type releaseBody struct {
	io.ReadCloser
	t    *transport
	c    *persistConn
	addr string
	stop func() bool
	keep bool // the response allows another request on c
	done atomic.Bool
}

// Read reads the body. After EOF the underlying body answers EOF without
// touching c, so a Read after c went back to the pool is safe.
func (b *releaseBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	if err == io.EOF {
		b.release(b.keep)
	}
	return n, err
}

func (b *releaseBody) Close() error {
	b.release(false)
	return nil
}

// release ends the exchange once, whichever of EOF and Close comes
// first. The connection is reused only if the response allows it, the
// context's AfterFunc has not fired (stop reports that it never will),
// and no stray bytes follow the response.
func (b *releaseBody) release(reuse bool) {
	if !b.done.CompareAndSwap(false, true) {
		return
	}
	if b.stop() && reuse && b.c.br.Buffered() == 0 {
		b.t.putIdle(b.addr, b.c)
		return
	}
	b.c.Close()
}

// takeIdle pops the most recently used idle connection to addr, or nil.
func (t *transport) takeIdle(addr string) *persistConn {
	t.mu.Lock()
	defer t.mu.Unlock()
	conns := t.idle[addr]
	if len(conns) == 0 {
		return nil
	}
	c := conns[len(conns)-1]
	conns[len(conns)-1] = nil
	t.idle[addr] = conns[:len(conns)-1]
	return c
}

// putIdle keeps c for the next request to addr, up to upstreamIdleConns
// per host.
func (t *transport) putIdle(addr string, c *persistConn) {
	t.mu.Lock()
	if conns := t.idle[addr]; len(conns) < upstreamIdleConns {
		t.idle[addr] = append(conns, c)
		c = nil
	}
	t.mu.Unlock()
	if c != nil {
		c.Close()
	}
}

// CloseIdleConnections closes every idle connection; http.Client's
// method of the same name calls it.
func (t *transport) CloseIdleConnections() {
	t.mu.Lock()
	idle := t.idle
	t.idle = make(map[string][]*persistConn)
	t.mu.Unlock()
	for _, conns := range idle {
		for _, c := range conns {
			c.Close()
		}
	}
}
