package wire

import (
	"fmt"
	"net"
	"sync"
)

// Client is the calling end of one connection. Any number of calls may be
// in flight; each is answered by the reply that carries its request id, in
// whatever order the server finishes them.
type Client struct {
	cn *conn

	mu      sync.Mutex
	pending map[uint64]*Call
	nextID  uint64
	err     error // set once the connection is unusable

	readDone chan struct{}
}

// Call is one request in flight. Done is closed when Err is final and — on
// success — the reply has been decoded.
type Call struct {
	Err  error
	Done chan struct{}

	reply    any
	maxReply int
}

// NewClient takes over nc.
func NewClient(nc net.Conn) *Client {
	c := &Client{cn: newConn(nc, nil, nil), pending: make(map[uint64]*Call), readDone: make(chan struct{})}
	go c.read()
	return c
}

// Go sends a request of method m and returns without waiting for its reply.
// args is an Appender or a StreamWriter (nil for an empty request), reply a
// Parser or a StreamReader the reply is decoded into; the caller must leave
// reply alone until Done is closed — or, when it gives up on the call, until
// Close has returned. span is the caller's trace span, 0 for none.
func (c *Client) Go(m *Method, span uint64, args, reply any) *Call {
	call := &Call{Done: make(chan struct{}), reply: reply, maxReply: m.MaxReply}
	c.mu.Lock()
	if c.err != nil {
		err := c.err
		c.mu.Unlock()
		call.finish(err)
		return call
	}
	c.nextID++
	id := c.nextID
	c.pending[id] = call
	c.mu.Unlock()
	if err := c.cn.writeFrame(Header{Method: m.ID, ID: id, Span: span}, args); err != nil {
		// A frame may be half out: the stream is lost, for every call on it.
		c.fail(fmt.Errorf("%w: write %s: %v", ErrShutdown, m.Name, err))
	}
	return call
}

// Call sends a request and waits for its reply.
func (c *Client) Call(m *Method, span uint64, args, reply any) error {
	call := c.Go(m, span, args, reply)
	<-call.Done
	return call.Err
}

func (call *Call) finish(err error) {
	call.Err = err
	close(call.Done)
}

// read is the connection's reader: it matches each reply to its call and
// decodes the payload straight into that call's reply.
func (c *Client) read() {
	defer close(c.readDone)
	for {
		h, err := c.cn.readHeader()
		if err != nil {
			c.fail(fmt.Errorf("%w: %v", ErrShutdown, err))
			return
		}
		c.mu.Lock()
		call := c.pending[h.ID]
		delete(c.pending, h.ID)
		c.mu.Unlock()
		switch {
		case call == nil || !h.Reply:
			c.fail(fmt.Errorf("%w: unexpected frame (reply %v, id %d)", ErrShutdown, h.Reply, h.ID))
			return
		case h.Status != StatusOK && h.Len > maxErrorText, h.Status == StatusOK && int64(h.Len) > int64(call.maxReply):
			err := fmt.Errorf("%w: reply of %d bytes exceeds the method's bound", ErrShutdown, h.Len)
			call.finish(err)
			c.fail(err)
			return
		}
		var msg any = call.reply
		var text errorText
		if h.Status != StatusOK {
			msg = &text
		}
		fatal, err := c.cn.readBody(int(h.Len), msg)
		if fatal {
			err = fmt.Errorf("%w: %v", ErrShutdown, err)
			call.finish(err)
			c.fail(err)
			return
		}
		if h.Status != StatusOK {
			err = &ServerError{Status: h.Status, Msg: string(text)}
		}
		call.finish(err)
	}
}

// fail marks the connection unusable, hangs it up and fails every call in
// flight with err.
func (c *Client) fail(err error) {
	c.mu.Lock()
	if c.err == nil {
		c.err = err
	}
	calls := c.pending
	c.pending = make(map[uint64]*Call)
	c.mu.Unlock()
	_ = c.cn.nc.Close() // the reader's (or a writer's) error is the one reported
	for _, call := range calls {
		call.finish(err)
	}
}

// Close hangs up and waits for the reader to exit, so that when it returns
// nothing will touch the reply of any call, finished or abandoned. Calls in
// flight fail with ErrShutdown.
func (c *Client) Close() error {
	c.fail(ErrShutdown)
	<-c.readDone
	return nil
}
