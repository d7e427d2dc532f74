package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"time"
)

// rawConn is a minimal keep-alive HTTP/1.1 client over one TCP
// connection. The load generator shares two cores with the server it
// measures; net/http's client costs several times the server's own
// per-request work and allocation, which would put the generator, not the
// service, in the measured latencies and tail.
type rawConn struct {
	c    net.Conn
	br   *bufio.Reader
	host string
	wbuf []byte
	body []byte
}

func dialRaw(addr string) (*rawConn, error) {
	rc := &rawConn{host: addr}
	return rc, rc.dial()
}

func (rc *rawConn) dial() error {
	c, err := net.Dial("tcp", rc.host)
	if err != nil {
		return err
	}
	rc.c, rc.br = c, bufio.NewReaderSize(c, 16<<10)
	return nil
}

func (rc *rawConn) Close() error {
	if rc.c == nil {
		return nil
	}
	err := rc.c.Close()
	rc.c = nil
	return err
}

// do sends one request and reads the whole reply. The returned body is
// valid until the next call. After a failed exchange the connection is
// closed (its stream may be mid-reply) and the next call redials.
func (rc *rawConn) do(method, path string, header string, body []byte) (int, []byte, error) {
	if rc.c == nil {
		if err := rc.dial(); err != nil {
			return 0, nil, err
		}
	}
	status, reply, err := rc.exchange(method, path, header, body)
	if err != nil {
		rc.Close()
	}
	return status, reply, err
}

func (rc *rawConn) exchange(method, path string, header string, body []byte) (int, []byte, error) {
	if err := rc.c.SetDeadline(time.Now().Add(requestTimeout)); err != nil {
		return 0, nil, err
	}
	b := rc.wbuf[:0]
	b = append(b, method...)
	b = append(b, ' ')
	b = append(b, path...)
	b = append(b, " HTTP/1.1\r\nHost: "...)
	b = append(b, rc.host...)
	b = append(b, "\r\n"...)
	b = append(b, header...)
	if body != nil {
		b = append(b, "Content-Length: "...)
		b = strconv.AppendInt(b, int64(len(body)), 10)
		b = append(b, "\r\n"...)
	}
	b = append(b, "\r\n"...)
	b = append(b, body...)
	rc.wbuf = b
	if _, err := rc.c.Write(b); err != nil {
		return 0, nil, err
	}
	return rc.readResponse()
}

var errMalformed = errors.New("malformed HTTP response")

func (rc *rawConn) readResponse() (int, []byte, error) {
	line, err := rc.br.ReadSlice('\n')
	if err != nil {
		return 0, nil, err
	}
	// "HTTP/1.1 202 Accepted\r\n"
	if len(line) < 12 || !bytes.HasPrefix(line, []byte("HTTP/1.")) {
		return 0, nil, errMalformed
	}
	status, err := strconv.Atoi(string(line[9:12]))
	if err != nil {
		return 0, nil, errMalformed
	}
	length, chunked := -1, false
	for {
		h, err := rc.br.ReadSlice('\n')
		if err != nil {
			return 0, nil, err
		}
		h = bytes.TrimRight(h, "\r\n")
		if len(h) == 0 {
			break
		}
		k, v, ok := bytes.Cut(h, []byte(":"))
		if !ok {
			return 0, nil, errMalformed
		}
		v = bytes.TrimSpace(v)
		switch {
		case asciiEqualFold(k, "Content-Length"):
			if length, err = strconv.Atoi(string(v)); err != nil {
				return 0, nil, errMalformed
			}
		case asciiEqualFold(k, "Transfer-Encoding"):
			chunked = asciiEqualFold(v, "chunked")
		}
	}
	rc.body = rc.body[:0]
	switch {
	case chunked:
		err = rc.readChunked()
	case length >= 0:
		rc.body = grow(rc.body, length)
		_, err = io.ReadFull(rc.br, rc.body)
	default:
		err = fmt.Errorf("%w: no length", errMalformed)
	}
	return status, rc.body, err
}

func (rc *rawConn) readChunked() error {
	for {
		line, err := rc.br.ReadSlice('\n')
		if err != nil {
			return err
		}
		size, err := strconv.ParseInt(string(bytes.TrimSpace(line)), 16, 32)
		if err != nil {
			return errMalformed
		}
		if size == 0 {
			_, err := rc.br.ReadSlice('\n') // the final CRLF (no trailers)
			return err
		}
		n := len(rc.body)
		rc.body = grow(rc.body, n+int(size))
		if _, err := io.ReadFull(rc.br, rc.body[n:]); err != nil {
			return err
		}
		if _, err := rc.br.ReadSlice('\n'); err != nil {
			return err
		}
	}
}

// grow resizes b to n bytes, keeping its contents.
func grow(b []byte, n int) []byte {
	if cap(b) >= n {
		return b[:n]
	}
	out := make([]byte, n, 2*n)
	copy(out, b)
	return out
}

func asciiEqualFold(b []byte, s string) bool {
	if len(b) != len(s) {
		return false
	}
	for i := range b {
		x, y := b[i]|0x20, s[i]|0x20
		if x != y {
			return false
		}
	}
	return true
}
