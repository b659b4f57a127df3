package wire

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"time"

	"pbg/internal/obs"
)

// Invocation is one request being served: the connection's reader decodes
// the payload into Args (a Flat or a StreamReader), then Invoke runs the
// handler on a goroutine of its own and returns the reply to send (a Flat, a
// StreamWriter, or nil) or the error to report. A reply that
// has a WireDone method is told when the transport has finished with it,
// whether or not it could be sent.
type Invocation interface {
	Args() any
	Invoke() (reply any, err error)
}

// Handler returns a constructor of Invocations over fn, a handler in the
// shape both services use: decoded arguments in, reply filled in. prepare,
// if non-nil, sees the zero arguments before they are decoded — it is how a
// stream-read request learns where its body should go.
func Handler[A, R any](fn func(A, *R) error, prepare func(*A)) func() Invocation {
	return func() Invocation {
		inv := &invocation[A, R]{fn: fn}
		if prepare != nil {
			prepare(&inv.args)
		}
		return inv
	}
}

type invocation[A, R any] struct {
	fn    func(A, *R) error
	args  A
	reply R
}

func (i *invocation[A, R]) Args() any { return &i.args }

func (i *invocation[A, R]) Invoke() (any, error) {
	if err := i.fn(i.args, &i.reply); err != nil {
		return nil, err
	}
	return &i.reply, nil
}

// Server is the serving end: a method table and the accounting every
// connection shares. Configure it before the first Serve.
type Server struct {
	methods map[uint16]served

	// Classify, if set, assigns the status a handler's error crosses the
	// wire under (StatusError, or a class at or above StatusUser); unset,
	// every error is StatusError.
	Classify func(error) Status

	track   string
	trace   *obs.Tracer
	in, out *obs.Counter
	queueNs *obs.Histogram
}

type served struct {
	Method
	newCall func() Invocation
}

// NewServer returns a server with no methods. Its byte counters and queue
// histogram live in h's registry, and the span of a request that names the
// caller's span is recorded in h's tracer, on track, as that span's child;
// a nil h keeps them private.
func NewServer(h *obs.Hub, track string) *Server {
	if h == nil {
		h = obs.NewQuietHub()
	}
	return &Server{
		methods: make(map[uint16]served),
		track:   track,
		trace:   h.Trace,
		in:      h.Reg.Counter(`pbg_wire_bytes_total{dir="in"}`),
		out:     h.Reg.Counter(`pbg_wire_bytes_total{dir="out"}`),
		queueNs: h.Reg.Histogram("pbg_wire_server_queue_ns"),
	}
}

// Handle registers newCall for method m.
func (s *Server) Handle(m Method, newCall func() Invocation) {
	s.methods[m.ID] = served{m, newCall}
}

// Serve accepts connections on l and serves each on its own goroutine until
// l is closed. Connections already accepted live until their client hangs
// up.
func (s *Server) Serve(l net.Listener) {
	for {
		nc, err := l.Accept()
		if err != nil {
			return // listener closed: shutdown
		}
		go s.ServeConn(nc)
	}
}

// admit checks a request header against the method table — the gate in
// front of every allocation a request can cause.
func (s *Server) admit(h Header) (served, error) {
	m, ok := s.methods[h.Method]
	switch {
	case h.Reply:
		return served{}, fmt.Errorf("wire: reply frame sent to a server")
	case !ok:
		return served{}, fmt.Errorf("wire: unknown method %d", h.Method)
	case int64(h.Len) > int64(m.MaxReq):
		return served{}, fmt.Errorf("wire: %s request of %d bytes exceeds its bound of %d", m.Name, h.Len, m.MaxReq)
	}
	return m, nil
}

// Decode reads one request frame from r through the steps a connection's
// reader takes — header, admission against the method table, payload into
// fresh arguments — and returns the header and the arguments. It exists so
// that a fuzzer can hold the live request surface to its contract.
func (s *Server) Decode(r io.Reader) (Header, any, error) {
	cn := &conn{br: bufio.NewReaderSize(r, 4096)}
	h, err := cn.readHeader()
	if err != nil {
		return h, nil, err
	}
	m, err := s.admit(h)
	if err != nil {
		return h, nil, err
	}
	call := m.newCall()
	if _, err := cn.readBody(int(h.Len), call.Args()); err != nil {
		return h, nil, err
	}
	return h, call.Args(), nil
}

// ServeConn serves one connection until it fails or the client hangs up.
func (s *Server) ServeConn(nc net.Conn) {
	defer nc.Close()
	cn := newConn(nc, s.in, s.out)
	for {
		h, err := cn.readHeader()
		if err != nil {
			return
		}
		m, err := s.admit(h)
		if err != nil {
			// The payload stays unread, so the stream ends here.
			s.reply(cn, h, nil, err)
			return
		}
		call := m.newCall()
		fatal, err := cn.readBody(int(h.Len), call.Args())
		if fatal {
			return
		}
		if err != nil {
			s.reply(cn, h, nil, err)
			continue
		}
		go s.run(cn, h, m, call, time.Now())
	}
}

// run is one request's goroutine.
func (s *Server) run(cn *conn, h Header, m served, call Invocation, queued time.Time) {
	s.queueNs.Observe(float64(time.Since(queued).Nanoseconds()))
	var sp *obs.Span
	if h.Span != 0 {
		sp = s.trace.StartUnder(int64(h.Span), s.track, m.Name)
	}
	reply, err := call.Invoke()
	sp.End()
	s.reply(cn, h, reply, err)
}

// reply answers request h with msg, or with err's text under its class. A
// failed write hangs the connection up: the reader's next read ends it.
func (s *Server) reply(cn *conn, h Header, msg any, err error) {
	out := Header{Method: h.Method, Reply: true, ID: h.ID}
	if err != nil {
		out.Status = StatusError
		if s.Classify != nil {
			out.Status = max(s.Classify(err), StatusError)
		}
		msg = err
	}
	if werr := cn.writeFrame(out, msg); werr != nil {
		_ = cn.nc.Close() // nothing to report to: the client sees the hang-up
	}
	if d, ok := msg.(interface{ WireDone() }); ok {
		d.WireDone()
	}
}
