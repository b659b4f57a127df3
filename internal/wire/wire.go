// Package wire is the one transport under both RPC surfaces of the
// repository: internal/dist's lock, partition and parameter servers and
// internal/serve's query front end. A connection carries length-prefixed
// frames in both directions, each a fixed 24-byte header followed by the
// payload it announces:
//
//	off  size  field
//	0    4     payload length in bytes
//	4    2     method id
//	6    1     kind: 0 request, 1 reply
//	7    1     status: 0 on requests and successful replies, else the error class
//	8    8     request id — a reply carries its request's
//	16   8     span id of the caller's trace span (0 = untraced)
//
// all little-endian. A reply with a non-zero status carries the error text
// as its payload. Nothing on the wire is self-describing and nothing
// reflects: every message type encodes and decodes itself in one of two
// shapes. A flat message (Flat) is its walk over Fields, which names its
// bytes once and is both its encoder and its decoder; the connection runs
// the walk with a cursor of its own over a buffer it owns and grows as the
// bytes arrive. A stream message (StreamWriter / StreamReader) writes to and
// reads from the socket itself, which is how a partition moves between the
// socket and shard memory with no copy in between. Fields is also the codec
// of the checkpoint's flat files, relations.pbg and ivf.pbg: each is one
// walk, its writer and its reader, held to the same count checks as a
// message.
//
// Requests on one connection are read in order and served concurrently, one
// goroutine each; replies are written as they finish and matched to callers
// by request id, so a call parked on the server never delays another that
// shares its connection.
//
// The server checks a request's payload length against its method's bound
// before it allocates or reads a byte of it. A longer payload is refused and
// the connection closed; a payload within the bound that fails to decode is
// consumed, answered with an error, and the connection carries on.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// HeaderBytes is the size of the fixed frame header.
const HeaderBytes = 24

// MaxPayload is the largest payload a frame can announce.
const MaxPayload = 1<<31 - 1

// maxErrorText bounds the error text of a failed reply.
const maxErrorText = 64 << 10

// keepBuffer is the largest flat-payload buffer a connection holds on to
// between frames; a larger one is dropped after the frame that needed it.
const keepBuffer = 1 << 20

// Status is the outcome class of a reply.
type Status uint8

const (
	// StatusOK marks a request, or a reply carrying the method's result.
	StatusOK Status = 0
	// StatusError marks a reply carrying the text of an error the handler
	// returned, of no particular class.
	StatusError Status = 1
	// StatusUser is the first class free for the application's own error
	// classes (see Server.Classify).
	StatusUser Status = 2
)

// Header is the decoded frame header.
type Header struct {
	Len    uint32
	Method uint16
	Reply  bool
	Status Status
	ID     uint64
	Span   uint64
}

// put encodes h into b[:HeaderBytes].
func (h Header) put(b []byte) {
	binary.LittleEndian.PutUint32(b[0:], h.Len)
	binary.LittleEndian.PutUint16(b[4:], h.Method)
	b[6] = 0
	if h.Reply {
		b[6] = 1
	}
	b[7] = byte(h.Status)
	binary.LittleEndian.PutUint64(b[8:], h.ID)
	binary.LittleEndian.PutUint64(b[16:], h.Span)
}

// Append appends the encoded header to dst.
func (h Header) Append(dst []byte) []byte {
	var b [HeaderBytes]byte
	h.put(b[:])
	return append(dst, b[:]...)
}

// ParseHeader decodes the header at the front of b. It accepts exactly the
// byte strings Header.Append produces.
func ParseHeader(b []byte) (Header, error) {
	if len(b) < HeaderBytes {
		return Header{}, fmt.Errorf("wire: frame header truncated: %d bytes, want %d", len(b), HeaderBytes)
	}
	h := Header{
		Len:    binary.LittleEndian.Uint32(b[0:]),
		Method: binary.LittleEndian.Uint16(b[4:]),
		Reply:  b[6] == 1,
		Status: Status(b[7]),
		ID:     binary.LittleEndian.Uint64(b[8:]),
		Span:   binary.LittleEndian.Uint64(b[16:]),
	}
	switch {
	case b[6] > 1:
		return Header{}, fmt.Errorf("wire: bad frame kind %d", b[6])
	case !h.Reply && h.Status != StatusOK:
		return Header{}, fmt.Errorf("wire: request frame with status %d", h.Status)
	case h.Len > MaxPayload:
		return Header{}, fmt.Errorf("wire: frame announces %d payload bytes", h.Len)
	}
	return h, nil
}

// Method names one call of a service. The id crosses the wire; the name is
// what logs, metrics and fault-injection rules say.
type Method struct {
	ID   uint16
	Name string
	// MaxReq bounds the request payload: a server refuses a longer one before
	// it allocates or reads any of it. MaxReply is the client's bound on the
	// reply.
	MaxReq, MaxReply int
}

// The message shapes. A type crosses the wire in a given direction by
// implementing Flat, or the stream interface of that direction.
type (
	// Flat is a message that crosses in either direction as its walk over
	// Fields: each field by pointer, in wire order. Decoding, the walk reads
	// the whole payload from a buffer that is reused once it returns; the
	// Fields methods copy out what they keep.
	Flat interface {
		Fields(f *Fields)
	}
	// StreamWriter is an outgoing message written straight to the
	// connection: exactly WireSize bytes, in as few Writes as it can.
	StreamWriter interface {
		WireSize() int
		WriteWire(w io.Writer) error
	}
	// StreamReader is an incoming message read straight off the connection:
	// r yields exactly the n payload bytes. It should reject what it can
	// from n and the first bytes before reading the rest into memory of that
	// size; whatever it leaves unread is discarded.
	StreamReader interface {
		ReadWire(r io.Reader, n int) error
	}
)

// ErrShutdown is returned for calls on a client that has been closed or
// whose connection has failed; calls in flight at that moment fail with an
// error that wraps it.
var ErrShutdown = errors.New("wire: connection is shut down")

// ServerError is an error a handler returned, as the client sees it: the
// class the server assigned and the text.
type ServerError struct {
	Status Status
	Msg    string
}

func (e *ServerError) Error() string { return e.Msg }
