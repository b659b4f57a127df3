package wire

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"sync"

	"pbg/internal/obs"
)

// conn frames one connection for either end. One goroutine reads (the
// read-side fields are its alone); any number write, serialised by wmu.
//
// Buffer ownership. The connection owns three buffers, all reused from frame
// to frame and none ever handed to a caller: a 4 KiB read-ahead in front of
// the socket (a stream reader drains it and then reads the socket straight
// into its own memory), the flat-payload scratch a Parser sees, and the
// write buffer in which the header and a flat payload are assembled. A
// stream writer's large blocks are not copied into the write buffer: they
// leave in one vectored write together with whatever small bytes precede
// them.
type conn struct {
	nc net.Conn

	br      *bufio.Reader
	hdr     [HeaderBytes]byte
	scratch []byte
	lr      io.LimitedReader

	wmu  sync.Mutex
	wbuf []byte
	sw   streamWriter
	vecs [2][]byte
	vec  net.Buffers

	// in and out count the bytes of whole frames read and written; nil on
	// the client end.
	in, out *obs.Counter
}

func newConn(nc net.Conn, in, out *obs.Counter) *conn {
	c := &conn{nc: nc, br: bufio.NewReaderSize(nc, 4096), wbuf: make([]byte, 0, 4096), in: in, out: out}
	c.sw.c = c
	return c
}

// readHeader reads the next frame header.
func (c *conn) readHeader() (Header, error) {
	if _, err := io.ReadFull(c.br, c.hdr[:]); err != nil {
		return Header{}, err
	}
	return ParseHeader(c.hdr[:])
}

// readBody reads an n-byte payload into msg; the caller has checked n
// against its bound. A fatal error means the stream is lost; otherwise the
// payload has been consumed whole and err is the decoder's verdict.
func (c *conn) readBody(n int, msg any) (fatal bool, err error) {
	if c.in != nil {
		c.in.Add(int64(HeaderBytes) + int64(n))
	}
	switch m := msg.(type) {
	case Parser:
		buf := c.scratch
		if cap(buf) < n {
			buf = make([]byte, n)
			if n <= keepBuffer {
				c.scratch = buf
			}
		}
		buf = buf[:n]
		if _, err := io.ReadFull(c.br, buf); err != nil {
			return true, err
		}
		return false, m.ParseWire(buf)
	case StreamReader:
		c.lr = io.LimitedReader{R: c.br, N: int64(n)}
		err = m.ReadWire(&c.lr, n)
		if c.lr.N > 0 {
			if err == nil {
				err = fmt.Errorf("wire: %T left %d of %d payload bytes unread", msg, c.lr.N, n)
			}
			if _, derr := io.CopyN(io.Discard, c.br, c.lr.N); derr != nil {
				return true, derr
			}
		}
		return false, err
	}
	return true, fmt.Errorf("wire: %T cannot be read off the wire", msg)
}

// writeFrame writes one frame: h with its length filled in, then msg (nil
// for an empty payload). After an error the stream is lost.
func (c *conn) writeFrame(h Header, msg any) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	buf := c.wbuf[:HeaderBytes]
	var stream StreamWriter
	size := 0
	switch m := msg.(type) {
	case nil:
	case Appender:
		buf = m.AppendWire(buf)
		if cap(buf) <= keepBuffer {
			c.wbuf = buf[:0]
		}
		size = len(buf) - HeaderBytes
	case StreamWriter:
		stream, size = m, m.WireSize()
	default:
		return fmt.Errorf("wire: %T cannot be written to the wire", msg)
	}
	if size < 0 || size > MaxPayload {
		return fmt.Errorf("wire: %T is %d bytes on the wire", msg, size)
	}
	h.Len = uint32(size)
	h.put(buf)
	if c.out != nil {
		// Before the write: whoever has seen the frame finds it counted.
		c.out.Add(int64(HeaderBytes) + int64(size))
	}
	if stream == nil {
		_, err := c.nc.Write(buf)
		return err
	}
	c.sw.buf, c.sw.left = buf, size
	if err := stream.WriteWire(&c.sw); err != nil {
		return err
	}
	if c.sw.left != 0 {
		return fmt.Errorf("wire: %T wrote %d bytes short of the %d it announced", msg, c.sw.left, size)
	}
	return c.sw.flush()
}

// streamWriter is what a StreamWriter writes to: bytes that fit the
// connection's small write buffer gather there (the frame header is already
// in it), and a block that does not fit leaves at once, in one vectored
// write behind the gathered bytes, from the caller's memory.
type streamWriter struct {
	c    *conn
	buf  []byte
	left int // announced payload bytes not yet written
}

func (s *streamWriter) Write(p []byte) (int, error) {
	if len(p) > s.left {
		return 0, fmt.Errorf("wire: stream message writes past the %d bytes it announced", s.left)
	}
	s.left -= len(p)
	if len(s.buf)+len(p) <= cap(s.buf) {
		s.buf = append(s.buf, p...)
		return len(p), nil
	}
	c := s.c
	c.vecs[0], c.vecs[1] = s.buf, p
	c.vec = c.vecs[:]
	s.buf = s.buf[:0]
	_, err := c.vec.WriteTo(c.nc)
	c.vecs[1] = nil // the caller's block is not ours to keep
	if err != nil {
		return 0, err
	}
	return len(p), nil
}

func (s *streamWriter) flush() error {
	if len(s.buf) == 0 {
		return nil
	}
	_, err := s.c.nc.Write(s.buf)
	s.buf = s.buf[:0]
	return err
}
