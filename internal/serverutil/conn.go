package serverutil

import (
	"bufio"
	"context"
	"errors"
	"io"
	"math"
	"net"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

const (
	// maxHeaderBytes caps a request's header block at net/http's default:
	// DefaultMaxHeaderBytes plus the 4 KiB of slack it reads past it.
	maxHeaderBytes = http.DefaultMaxHeaderBytes + 4<<10
	// maxDrainBytes is the most of an unread request body the loop reads
	// to keep its connection (net/http's limit too); past it, the
	// connection closes.
	maxDrainBytes = 256 << 10
	// lingerTimeout bounds how long a connection closed with request
	// bytes unread keeps reading them, so the kernel does not answer
	// them with a reset that discards the response.
	lingerTimeout = 500 * time.Millisecond
)

// aLongTimeAgo is a read deadline in the past: it ends a pending read.
var aLongTimeAgo = time.Unix(1, 0)

// Connection states. Shutdown closes a connection only while it is idle:
// between requests, waiting for the first byte of the next one.
const (
	stateActive int32 = iota
	stateIdle
	stateClosed
)

// conn is one client connection, served on its own goroutine: parse a
// request, run the handler, finish the response, repeat.
//
// A handler that asks for its request context's Done channel starts a
// watcher goroutine, which reads one byte ahead on the socket so that a
// client hang-up cancels the context. Three rules keep it from racing
// the loop: it starts only while the handler runs; before the next
// parse the loop stops it (a read deadline in the past), waits for it
// and clears the deadline; and a byte it read goes to the next parse.
type conn struct {
	srv        *Server
	rwc        net.Conn
	remoteAddr string
	br         *bufio.Reader
	state      atomic.Int32

	// The loop's read side (Read). remain is what the header cap has
	// left; pending holds a byte the watcher read ahead. The watcher
	// writes pending, hasByte and hungUp only before it exits, and the
	// loop reads them only after it has waited for that.
	remain  int64
	pending [1]byte
	hasByte bool
	hungUp  bool

	// Scratch the responses on this connection reuse.
	hdr  []byte      // header block
	body []byte      // body of a response without a declared length
	keys []string    // sorted header keys
	vec  [2][]byte   // the writev of header and first body piece
	bufs net.Buffers // vec, consumed by WriteTo

	// mu guards the watcher's start against the handler's end.
	mu        sync.Mutex
	inHandler bool
	bodyDone  bool          // the request body hit EOF, or there was none
	wantWatch bool          // Done was asked for before bodyDone
	watchDone chan struct{} // non-nil once a watcher started; closed when it exits
	ctx       *requestContext
	cancel    context.CancelFunc
}

func newConn(s *Server, rwc net.Conn) *conn {
	c := &conn{srv: s, rwc: rwc, remoteAddr: rwc.RemoteAddr().String()}
	c.br = bufio.NewReader(c)
	return c
}

// Read feeds the request parser: first a byte the watcher read ahead,
// then the socket, up to the header cap while a header block is read.
func (c *conn) Read(p []byte) (int, error) {
	if c.remain <= 0 {
		return 0, io.EOF
	}
	if int64(len(p)) > c.remain {
		p = p[:c.remain]
	}
	if c.hasByte {
		c.hasByte = false
		p[0] = c.pending[0]
		c.remain--
		return 1, nil
	}
	n, err := c.rwc.Read(p)
	c.remain -= int64(n)
	return n, err
}

// closeIfIdle closes c if it is waiting for a request; Shutdown calls
// it. A connection that is active closes itself after its response.
func (c *conn) closeIfIdle() {
	if c.state.CompareAndSwap(stateIdle, stateClosed) {
		c.rwc.Close()
	}
}

// idle marks c as waiting for a request. It reports false once the
// server is shutting down: c closes instead.
func (c *conn) idle() bool {
	c.state.Store(stateIdle)
	if c.srv.shutting.Load() {
		c.closeIfIdle()
		return false
	}
	return true
}

func (c *conn) serve() {
	defer c.srv.forget(c)
	defer c.rwc.Close()
	for {
		c.remain = maxHeaderBytes
		if !c.idle() {
			return
		}
		if _, err := c.br.Peek(1); err != nil {
			return
		}
		if !c.state.CompareAndSwap(stateIdle, stateActive) {
			return // Shutdown closed it
		}
		req, status := c.readRequest()
		if status != 0 {
			if status > 0 {
				c.writeError(status)
			}
			return
		}
		if !c.serveRequest(req) {
			return
		}
	}
}

// readRequest parses the next request. A status of -1 means the client
// went away; any other non-zero status is the error to answer with
// before the connection closes.
func (c *conn) readRequest() (*http.Request, int) {
	req, err := http.ReadRequest(c.br)
	switch {
	case err != nil && c.remain <= 0:
		return nil, http.StatusRequestHeaderFieldsTooLarge
	case err == io.EOF:
		return nil, -1
	case err != nil:
		var ne net.Error
		if errors.As(err, &ne) {
			return nil, -1
		}
		return nil, http.StatusBadRequest
	case req.ProtoMajor != 1:
		return nil, http.StatusHTTPVersionNotSupported
	}
	c.remain = math.MaxInt64
	if req.Host == "" && req.ProtoAtLeast(1, 1) && req.Method != http.MethodConnect {
		return nil, http.StatusBadRequest // HTTP/1.1 requires Host
	}
	return req, 0
}

// writeError answers a request the loop could not serve; the connection
// closes after it.
func (c *conn) writeError(status int) {
	text := http.StatusText(status)
	h := appendStatusLine(c.hdr[:0], status)
	h = append(h, "Content-Type: text/plain; charset=utf-8\r\nConnection: close\r\n\r\n"...)
	h = append(h, text...)
	c.rwc.Write(h)
	c.linger()
}

// linger closes the sending side and reads what the client still sends
// for a moment before the connection closes.
func (c *conn) linger() {
	if tc, ok := c.rwc.(*net.TCPConn); ok {
		tc.CloseWrite()
	}
	c.rwc.SetReadDeadline(time.Now().Add(lingerTimeout))
	io.Copy(io.Discard, c.rwc)
}

// serveRequest runs the handler on req and finishes its response. It
// reports whether the connection can carry another request.
func (c *conn) serveRequest(req *http.Request) bool {
	inner, cancel := context.WithCancel(context.Background())
	ctx := &requestContext{Context: inner, c: c}
	req = req.WithContext(ctx)
	req.RemoteAddr = c.remoteAddr
	w := &response{c: c, req: req, header: make(http.Header), declared: -1}
	if req.Body != http.NoBody {
		expect := req.Header.Get("Expect")
		cont := strings.EqualFold(expect, "100-continue") && req.ProtoAtLeast(1, 1)
		if expect != "" && !cont {
			cancel()
			c.writeError(http.StatusExpectationFailed)
			return false
		}
		w.body = &requestBody{rc: req.Body, w: w, cont: cont}
		req.Body = w.body
	}

	c.mu.Lock()
	c.inHandler = true
	c.bodyDone = w.body == nil
	c.wantWatch = false
	c.watchDone = nil
	c.ctx, c.cancel = ctx, cancel
	c.mu.Unlock()
	panicked := c.runHandler(w, req)
	c.endHandler()
	cancel()
	if panicked {
		return false
	}
	w.finish()
	switch {
	case w.unread:
		c.linger()
		return false
	case w.closeAfter || w.err != nil || c.hungUp:
		return false
	}
	if cap(c.body) > 64<<10 {
		c.body = nil // keep no large body buffer across requests
	}
	return true
}

// runHandler calls the handler, recovering a panic the way net/http
// does: it is logged (unless it is http.ErrAbortHandler) and the
// connection closes without a response.
func (c *conn) runHandler(w http.ResponseWriter, req *http.Request) (panicked bool) {
	defer func() {
		if p := recover(); p != nil {
			panicked = true
			if p != http.ErrAbortHandler {
				c.srv.logf("serverutil: panic serving %s: %v", c.remoteAddr, p)
			}
		}
	}()
	c.srv.cfg.Handler.ServeHTTP(w, req)
	return false
}

// requestContext is a request's context: a cancel context whose Done
// starts the hang-up watcher. Only Done is overridden, so
// context.WithTimeout and AfterFunc children still find the embedded
// cancel context and register with it, with no goroutine of their own.
type requestContext struct {
	context.Context
	c *conn
}

func (x *requestContext) Done() <-chan struct{} {
	x.c.watch(x)
	return x.Context.Done()
}

// watch starts the hang-up watcher if x's handler is running, none has
// started, and the request body has been read to its end (before that,
// a read would take a byte of the body; the watcher starts at its EOF).
func (c *conn) watch(x *requestContext) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.inHandler || c.ctx != x || c.watchDone != nil {
		return
	}
	if !c.bodyDone {
		c.wantWatch = true
		return
	}
	c.startWatchLocked()
}

// bodyEOF records that the request body hit its end, and starts the
// watcher if Done was asked for before.
func (c *conn) bodyEOF() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.bodyDone = true
	if c.wantWatch && c.inHandler && c.watchDone == nil {
		c.startWatchLocked()
	}
}

func (c *conn) startWatchLocked() {
	done := make(chan struct{})
	c.watchDone = done
	go func(cancel context.CancelFunc) {
		defer close(done)
		n, err := c.rwc.Read(c.pending[:])
		if n == 1 {
			// The next request has begun (pipelining): keep its byte for
			// the parse, and cancel nothing.
			c.hasByte = true
		}
		var ne net.Error
		if err != nil && !(errors.As(err, &ne) && ne.Timeout()) {
			c.hungUp = true
			cancel()
		}
	}(c.cancel)
}

// endHandler marks the handler finished, so a late Done starts nothing,
// and stops a running watcher before the next parse.
func (c *conn) endHandler() {
	c.mu.Lock()
	c.inHandler = false
	done := c.watchDone
	c.mu.Unlock()
	if done != nil {
		c.rwc.SetReadDeadline(aLongTimeAgo)
		<-done
		c.rwc.SetReadDeadline(time.Time{})
	}
}

// requestBody is a request body as the handler reads it. It sends
// 100 Continue before the first read when the client asked for it,
// tells the watcher when the body is done, and makes Close cheap: what
// the handler leaves unread is drained, up to maxDrainBytes, when the
// response header goes out.
type requestBody struct {
	rc     io.ReadCloser
	w      *response
	cont   bool // 100 Continue is owed before the first read
	sawEOF bool
	closed bool
}

func (b *requestBody) Read(p []byte) (int, error) {
	if b.closed {
		return 0, http.ErrBodyReadAfterClose
	}
	if b.cont {
		b.cont = false
		if !b.w.sent {
			if _, err := b.w.c.rwc.Write([]byte("HTTP/1.1 100 Continue\r\n\r\n")); err != nil {
				b.w.fail(err)
				return 0, err
			}
		}
	}
	return b.read(p)
}

func (b *requestBody) read(p []byte) (int, error) {
	n, err := b.rc.Read(p)
	if err == io.EOF && !b.sawEOF {
		b.sawEOF = true
		b.w.c.bodyEOF()
	}
	return n, err
}

func (b *requestBody) Close() error {
	b.closed = true
	return nil
}

// drain reads what the handler left of the body, up to maxDrainBytes.
// It reports whether the body ended, so the connection can be reused.
func (b *requestBody) drain() bool {
	if b.sawEOF {
		return true
	}
	if b.cont {
		return false // the client waits for 100 Continue before sending it
	}
	_, err := io.CopyN(io.Discard, readerFunc(b.read), maxDrainBytes+1)
	return err == io.EOF
}

type readerFunc func([]byte) (int, error)

func (f readerFunc) Read(p []byte) (int, error) { return f(p) }
