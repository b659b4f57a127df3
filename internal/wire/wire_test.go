package wire

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"strings"
	"testing"
	"time"

	"pbg/internal/obs"
)

// text is a flat test message; "bad" refuses to parse.
type text string

func (t text) AppendWire(dst []byte) []byte { return append(dst, t...) }

func (t *text) ParseWire(b []byte) error {
	if string(b) == "bad" {
		return errors.New("text: bad")
	}
	*t = text(b)
	return nil
}

// bulk is a stream test message. It reads at most keep bytes (0 = all) and
// announces short bytes more than it writes.
type bulk struct {
	b     []byte
	keep  int
	short int
}

func (m *bulk) WireSize() int { return len(m.b) + m.short }

func (m *bulk) WriteWire(w io.Writer) error {
	_, err := w.Write(m.b)
	return err
}

func (m *bulk) ReadWire(r io.Reader, n int) error {
	if m.keep > 0 && n > m.keep {
		n = m.keep
	}
	m.b = make([]byte, n)
	_, err := io.ReadFull(r, m.b)
	return err
}

var (
	mEcho  = Method{ID: 1, Name: "T.Echo", MaxReq: 64, MaxReply: 64}
	mPark  = Method{ID: 2, Name: "T.Park", MaxReq: 64, MaxReply: 64}
	mBulk  = Method{ID: 3, Name: "T.Bulk", MaxReq: 4 << 20, MaxReply: 4 << 20}
	mFail  = Method{ID: 4, Name: "T.Fail", MaxReq: 64, MaxReply: 64}
	mFirst = Method{ID: 5, Name: "T.First", MaxReq: 4 << 20, MaxReply: 64}
)

var errClassed = errors.New("classed")

// testServer serves the methods above on a loopback port. park is received
// from by every T.Park call before it answers.
func testServer(t *testing.T, hub *obs.Hub) (addr string, park chan struct{}) {
	t.Helper()
	park = make(chan struct{})
	srv := NewServer(hub, "test")
	srv.Classify = func(err error) Status {
		if errors.Is(err, errClassed) {
			return StatusUser + 3
		}
		return StatusError
	}
	srv.Handle(mEcho, Handler(func(a text, r *text) error { *r = "echo " + a; return nil }, nil))
	srv.Handle(mPark, Handler(func(a text, r *text) error { <-park; *r = "parked " + a; return nil }, nil))
	srv.Handle(mBulk, Handler(func(a bulk, r *bulk) error { r.b = a.b; return nil }, nil))
	srv.Handle(mFail, Handler(func(a text, r *text) error {
		if a == "classed" {
			return fmt.Errorf("handler: %w", errClassed)
		}
		return errors.New("handler: plain")
	}, nil))
	srv.Handle(mFirst, Handler(func(a bulk, r *text) error { *r = text(a.b); return nil },
		func(a *bulk) { a.keep = 4 }))
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = l.Close() })
	go srv.Serve(l)
	return l.Addr().String(), park
}

func dial(t *testing.T, addr string) *Client {
	t.Helper()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	c := NewClient(nc)
	t.Cleanup(func() { _ = c.Close() })
	return c
}

func TestHeaderRoundTrip(t *testing.T) {
	for _, h := range []Header{
		{},
		{Len: 7, Method: 513, ID: 1<<63 + 5, Span: 99},
		{Len: MaxPayload, Method: 65535, Reply: true, Status: 200, ID: 1, Span: 1<<64 - 1},
	} {
		b := h.Append(nil)
		if len(b) != HeaderBytes {
			t.Fatalf("%+v encodes to %d bytes", h, len(b))
		}
		got, err := ParseHeader(b)
		if err != nil || got != h {
			t.Fatalf("%+v round-trips to %+v, %v", h, got, err)
		}
	}
	good := Header{Len: 1, Method: 2, ID: 3}.Append(nil)
	for name, patch := range map[string]func(b []byte){
		"kind 2":              func(b []byte) { b[6] = 2 },
		"request with status": func(b []byte) { b[7] = 1 },
		"length over 2 GiB":   func(b []byte) { b[3] = 0x80 },
	} {
		b := bytes.Clone(good)
		patch(b)
		if _, err := ParseHeader(b); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	if _, err := ParseHeader(good[:HeaderBytes-1]); err == nil {
		t.Error("truncated header accepted")
	}
}

func TestDecIsStrict(t *testing.T) {
	enc := AppendString(AppendFloats(AppendBool(AppendInt(nil, -7), true), []float32{1.5, -2}), "héllo")
	d := NewDec(enc)
	if i, b, f, s := d.Int(), d.Bool(), d.Floats(), d.String(); i != -7 || !b || len(f) != 2 || f[1] != -2 || s != "héllo" {
		t.Fatalf("decoded %d %v %v %q", i, b, f, s)
	}
	if err := d.Done(); err != nil {
		t.Fatal(err)
	}
	for name, b := range map[string][]byte{
		"truncated int":            enc[:5],
		"bool 2":                   append(AppendInt(nil, 1), 2),
		"count the bytes lack":     {0xff, 0xff, 0xff, 0xff, 1, 2, 3, 4},
		"count overflowing uint32": {0xff, 0xff, 0xff, 0x7f},
	} {
		d := NewDec(b)
		switch name {
		case "truncated int":
			d.Int()
		case "bool 2":
			d.Int()
			d.Bool()
		default:
			if f := d.Floats(); f != nil {
				t.Errorf("%s: allocated %d floats", name, len(f))
			}
		}
		if d.Done() == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	if d := NewDec([]byte{1, 2}); d.Done() == nil {
		t.Error("trailing bytes accepted")
	}
}

// TestCallsMultiplex pins per-connection concurrency: a call parked on the
// server does not delay another that shares its connection, and each reply
// reaches the call that carries its id.
func TestCallsMultiplex(t *testing.T) {
	addr, park := testServer(t, nil)
	c := dial(t, addr)
	var parked [3]text
	var calls [3]*Call
	for i := range calls {
		calls[i] = c.Go(&mPark, 0, text(fmt.Sprint(i)), &parked[i])
	}
	var r text
	if err := c.Call(&mEcho, 0, text("x"), &r); err != nil || r != "echo x" {
		t.Fatalf("echo behind parked calls: %q, %v", r, err)
	}
	for i := range calls {
		select {
		case <-calls[i].Done:
			t.Fatalf("parked call %d finished early", i)
		default:
		}
	}
	for range calls {
		park <- struct{}{}
	}
	for i, call := range calls {
		<-call.Done
		if call.Err != nil || parked[i] != text("parked "+fmt.Sprint(i)) {
			t.Fatalf("call %d: %q, %v", i, parked[i], call.Err)
		}
	}
}

// TestCloseEndsCallsAndReader pins what lets a caller give up on a call: once
// Close returns, the call has failed with ErrShutdown and the reader is gone,
// so a reply the server sends later lands nowhere.
func TestCloseEndsCallsAndReader(t *testing.T) {
	addr, park := testServer(t, nil)
	c := dial(t, addr)
	var r text
	call := c.Go(&mPark, 0, text("late"), &r)
	_ = c.Close()
	select {
	case <-call.Done:
	default:
		t.Fatal("Close returned with the call still pending")
	}
	if !errors.Is(call.Err, ErrShutdown) {
		t.Fatalf("abandoned call: %v", call.Err)
	}
	select {
	case <-c.readDone:
	default:
		t.Fatal("Close returned with the reader still running")
	}
	park <- struct{}{} // the server now answers into a closed connection
	if r != "" {
		t.Fatalf("late reply delivered: %q", r)
	}
	if err := c.Call(&mEcho, 0, text("x"), &r); !errors.Is(err, ErrShutdown) {
		t.Fatalf("call on a closed client: %v", err)
	}
}

// TestStreamRoundTrip moves a block larger than every buffer of the
// connection through a stream message in both directions.
func TestStreamRoundTrip(t *testing.T) {
	addr, _ := testServer(t, nil)
	c := dial(t, addr)
	for _, n := range []int{0, 1, 4000, 4096, 3 << 20} {
		in := &bulk{b: make([]byte, n)}
		for i := range in.b {
			in.b[i] = byte(i * 7)
		}
		var out bulk
		if err := c.Call(&mBulk, 0, in, &out); err != nil {
			t.Fatalf("%d bytes: %v", n, err)
		}
		if !bytes.Equal(in.b, out.b) {
			t.Fatalf("%d bytes came back changed", n)
		}
	}
	// A writer that announces more than it writes poisons the stream rather
	// than leave the peer waiting inside a frame.
	var out bulk
	if err := c.Call(&mBulk, 0, &bulk{b: []byte("abc"), short: 2}, &out); !errors.Is(err, ErrShutdown) {
		t.Fatalf("short stream write: %v", err)
	}
}

// TestBadPayloadKeepsConnection: a payload within its bound that does not
// decode is consumed and answered; the connection carries on. A stream
// reader that stops early has the rest discarded for it.
func TestBadPayloadKeepsConnection(t *testing.T) {
	addr, _ := testServer(t, nil)
	c := dial(t, addr)
	var r text
	err := c.Call(&mEcho, 0, text("bad"), &r)
	var se *ServerError
	if !errors.As(err, &se) || se.Status != StatusError || se.Msg != "text: bad" {
		t.Fatalf("undecodable request: %v", err)
	}
	err = c.Call(&mFirst, 0, &bulk{b: bytes.Repeat([]byte("wxyz"), 1<<18)}, &r)
	if !errors.As(err, &se) || !strings.Contains(se.Msg, "unread") {
		t.Fatalf("stream reader that stopped early: %v", err)
	}
	if err := c.Call(&mFirst, 0, &bulk{b: []byte("wxyz")}, &r); err != nil || r != "wxyz" {
		t.Fatalf("after the rejects: %q, %v", r, err)
	}
}

// TestOversizeRequestRefusedUnread is the live gate: a frame announcing more
// than its method's bound is refused from the header alone — no payload is
// awaited, nothing of its size is allocated — and the connection ends.
func TestOversizeRequestRefusedUnread(t *testing.T) {
	addr, _ := testServer(t, nil)
	for name, h := range map[string]Header{
		"over the bound": {Method: mEcho.ID, ID: 9, Len: uint32(mEcho.MaxReq) + 1},
		"two gigabytes":  {Method: mBulk.ID, ID: 9, Len: MaxPayload},
		"unknown method": {Method: 999, ID: 9, Len: 3},
	} {
		nc, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := nc.Write(h.Append(nil)); err != nil {
			t.Fatal(err)
		}
		_ = nc.SetReadDeadline(time.Now().Add(5 * time.Second))
		all, err := io.ReadAll(nc) // the error reply, then the hang-up
		runtime.ReadMemStats(&after)
		_ = nc.Close()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		rh, err := ParseHeader(all)
		if err != nil || !rh.Reply || rh.ID != 9 || rh.Status != StatusError || int(rh.Len) != len(all)-HeaderBytes {
			t.Fatalf("%s: reply %+v, %v", name, rh, err)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
			t.Errorf("%s: refusing it allocated %d bytes", name, got)
		}
	}
}

// TestErrorClassCrossesAsStatus: the class Classify assigns is what the
// client sees, with the handler's text.
func TestErrorClassCrossesAsStatus(t *testing.T) {
	addr, _ := testServer(t, nil)
	c := dial(t, addr)
	var r text
	var se *ServerError
	if err := c.Call(&mFail, 0, text("classed"), &r); !errors.As(err, &se) || se.Status != StatusUser+3 || se.Msg != "handler: classed" {
		t.Fatalf("classed error: %v (%+v)", err, se)
	}
	if err := c.Call(&mFail, 0, text("plain"), &r); !errors.As(err, &se) || se.Status != StatusError || se.Msg != "handler: plain" {
		t.Fatalf("plain error: %v (%+v)", err, se)
	}
}

// TestServerSideObservability: a request that names its caller's span is
// recorded as that span's child, every request's queue time is observed, and
// the byte counters count whole frames.
func TestServerSideObservability(t *testing.T) {
	hub := obs.NewHub()
	addr, _ := testServer(t, hub)
	c := dial(t, addr)
	parent := hub.Trace.Start("client", "caller")
	var r text
	if err := c.Call(&mEcho, uint64(parent.ID()), text("abc"), &r); err != nil {
		t.Fatal(err)
	}
	parent.End()
	if err := c.Call(&mEcho, 0, text("abcd"), &r); err != nil { // untraced: no span
		t.Fatal(err)
	}
	var child []obs.SpanEvent
	for _, ev := range hub.Trace.Events() {
		if ev.Track == "test" {
			child = append(child, ev)
		}
	}
	if len(child) != 1 || child[0].Name != "T.Echo" || child[0].Parent != parent.ID() {
		t.Fatalf("server spans: %+v, want one T.Echo under %d", child, parent.ID())
	}
	snap := hub.Reg.Snapshot()
	if got := snap.Histograms["pbg_wire_server_queue_ns"].Count; got != 2 {
		t.Errorf("queue histogram has %d samples, want 2", got)
	}
	if in, want := snap.Counters[`pbg_wire_bytes_total{dir="in"}`], int64(2*HeaderBytes+3+4); in != want {
		t.Errorf("bytes in %d, want %d", in, want)
	}
	if out, want := snap.Counters[`pbg_wire_bytes_total{dir="out"}`], int64(2*HeaderBytes+8+9); out != want {
		t.Errorf("bytes out %d, want %d", out, want)
	}
}
