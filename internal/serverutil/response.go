package serverutil

import (
	"fmt"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"time"
)

// response is the http.ResponseWriter of one request. The header block
// is rendered when the first body piece is written (or when the handler
// returns): a declared Content-Length sends the block and that piece in
// one writev, and later pieces go straight to the socket; without one,
// the body is buffered and sent with its length when the handler
// returns.
type response struct {
	c      *conn
	req    *http.Request
	body   *requestBody // nil for a request without a body
	header http.Header

	status   int   // 0 until WriteHeader
	declared int64 // the handler's Content-Length, -1 if none
	written  int64 // body bytes the handler wrote
	ctype    string
	sent     bool // the header block is on the wire

	closeAfter bool  // the connection closes after this response
	unread     bool  // ...with request bytes left unread
	err        error // the first failed socket write
}

func (w *response) Header() http.Header { return w.header }

func (w *response) WriteHeader(code int) {
	if code < 100 || code > 999 {
		panic(fmt.Sprintf("invalid WriteHeader code %v", code))
	}
	if w.status != 0 || code < 200 && code != http.StatusSwitchingProtocols {
		return // an interim 1xx is dropped: the loop sends 100 Continue itself
	}
	w.status = code
	if cl := w.header.Get("Content-Length"); cl != "" {
		if v, err := strconv.ParseInt(cl, 10, 64); err == nil && v >= 0 {
			w.declared = v
		}
	}
}

func (w *response) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.WriteHeader(http.StatusOK)
	}
	switch {
	case !bodyAllowed(w.status):
		return 0, http.ErrBodyNotAllowed
	case w.err != nil:
		return 0, w.err
	case w.declared >= 0 && w.written+int64(len(p)) > w.declared:
		return 0, http.ErrContentLength
	}
	head := w.req.Method == http.MethodHead
	if w.written == 0 && len(p) > 0 && (w.declared >= 0 || head) {
		w.sniff(p) // a buffered body is sniffed whole when it is sent
	}
	w.written += int64(len(p))
	switch {
	case head:
		// The header goes out when the handler returns; the body never.
	case w.declared < 0:
		w.c.body = append(w.c.body, p...)
	case !w.sent:
		w.send(p)
	default:
		if _, err := w.c.rwc.Write(p); err != nil {
			w.fail(err)
		}
	}
	if w.err != nil {
		return 0, w.err
	}
	return len(p), nil
}

// sniff picks the Content-Type of a response whose handler set none, from
// its first body bytes.
func (w *response) sniff(p []byte) {
	if _, ok := w.header["Content-Type"]; !ok && w.ctype == "" {
		w.ctype = http.DetectContentType(p)
	}
}

// fail records a failed socket write: the client is gone, so the request
// context is cancelled and the connection closes.
func (w *response) fail(err error) {
	if w.err == nil {
		w.err = err
		w.c.cancel()
	}
}

// finish completes the response once the handler has returned.
func (w *response) finish() {
	if w.status == 0 {
		w.WriteHeader(http.StatusOK)
	}
	if !w.sent {
		w.send(w.c.body)
		w.c.body = w.c.body[:0]
	}
	if w.declared >= 0 && w.written < w.declared && w.req.Method != http.MethodHead && bodyAllowed(w.status) {
		// A body shorter than its declared length cannot be finished.
		w.closeAfter = true
	}
}

// send renders the header block and writes it with the first body piece
// p (dropped where the response carries no body).
func (w *response) send(p []byte) {
	w.sent = true
	c := w.c
	if b := w.body; b != nil && !b.drain() {
		w.closeAfter, w.unread = true, true
	}
	if w.req.Close || !w.req.ProtoAtLeast(1, 1) || c.srv.shutting.Load() ||
		strings.EqualFold(w.header.Get("Connection"), "close") {
		w.closeAfter = true
	}
	h := c.appendHeaders(appendStatusLine(c.hdr[:0], w.status), w.header, w.status)
	if bodyAllowed(w.status) {
		n := w.declared
		if n < 0 {
			n = w.written
		}
		h = append(h, "Content-Length: "...)
		h = strconv.AppendInt(h, n, 10)
		h = append(h, "\r\n"...)
		if w.declared < 0 && w.ctype == "" && len(p) > 0 {
			w.sniff(p)
		}
		if w.ctype != "" {
			h = append(h, "Content-Type: "...)
			h = append(h, w.ctype...)
			h = append(h, "\r\n"...)
		}
	}
	if _, ok := w.header["Date"]; !ok {
		h = append(h, "Date: "...)
		h = time.Now().UTC().AppendFormat(h, http.TimeFormat)
		h = append(h, "\r\n"...)
	}
	if w.closeAfter {
		h = append(h, "Connection: close\r\n"...)
	}
	h = append(h, "\r\n"...)
	c.hdr = h
	if w.req.Method == http.MethodHead || !bodyAllowed(w.status) {
		p = nil
	}
	if err := c.writeBlock(h, p); err != nil {
		w.fail(err)
	}
}

// writeBlock writes a header block and a body piece with one writev.
func (c *conn) writeBlock(h, p []byte) error {
	if len(p) == 0 {
		_, err := c.rwc.Write(h)
		return err
	}
	c.vec = [2][]byte{h, p}
	c.bufs = c.vec[:]
	_, err := c.bufs.WriteTo(c.rwc)
	c.vec = [2][]byte{}
	return err
}

// appendHeaders renders the handler's header fields in sorted order. The
// loop writes Content-Length, Transfer-Encoding and Connection itself, a
// 304 carries no Content-Type, a field with an invalid name is dropped,
// and CR or LF in a value becomes a space, so no value can split the
// block.
func (c *conn) appendHeaders(h []byte, header http.Header, status int) []byte {
	c.keys = c.keys[:0]
	for k := range header {
		switch {
		case k == "Content-Length" || k == "Transfer-Encoding" || k == "Connection":
		case k == "Content-Type" && status == http.StatusNotModified:
		case validFieldName(k):
			c.keys = append(c.keys, k)
		}
	}
	slices.Sort(c.keys)
	for _, k := range c.keys {
		for _, v := range header[k] {
			h = append(h, k...)
			h = append(h, ": "...)
			v = strings.Trim(v, " \t")
			if strings.ContainsAny(v, "\r\n") {
				v = strings.NewReplacer("\r", " ", "\n", " ").Replace(v)
			}
			h = append(h, v...)
			h = append(h, "\r\n"...)
		}
	}
	return h
}

func appendStatusLine(h []byte, code int) []byte {
	h = append(h, "HTTP/1.1 "...)
	h = strconv.AppendInt(h, int64(code), 10)
	h = append(h, ' ')
	if text := http.StatusText(code); text != "" {
		h = append(h, text...)
	} else {
		h = append(h, "status code "...)
		h = strconv.AppendInt(h, int64(code), 10)
	}
	return append(h, "\r\n"...)
}

// bodyAllowed reports whether a response of this status may carry a
// body: not a 1xx, 204 or 304.
func bodyAllowed(status int) bool {
	return status >= 200 && status != http.StatusNoContent && status != http.StatusNotModified
}

// validFieldName reports whether k is an RFC 9110 token.
func validFieldName(k string) bool {
	if k == "" {
		return false
	}
	for i := 0; i < len(k); i++ {
		b := k[i]
		switch {
		case 'a' <= b && b <= 'z', 'A' <= b && b <= 'Z', '0' <= b && b <= '9':
		case strings.IndexByte("!#$%&'*+-.^_`|~", b) >= 0:
		default:
			return false
		}
	}
	return true
}
