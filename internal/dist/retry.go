package dist

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"pbg/internal/obs"
	"pbg/internal/rng"
	"pbg/internal/wire"
)

// errCallTimeout marks an RPC call that exceeded RetryPolicy.CallTimeout.
// The underlying connection is torn down (the reply may still arrive and
// would otherwise desynchronise the stream), so the error is transient: the
// next attempt redials.
var errCallTimeout = errors.New("dist: rpc call timeout")

// RetryPolicy bounds a retryClient's patience. The zero value means "use
// defaults" — every field is defaulted independently, so tests can shorten
// just the knob they care about.
type RetryPolicy struct {
	// DialTimeout caps each connection attempt (default 5s).
	DialTimeout time.Duration
	// CallTimeout caps each individual RPC attempt (default 60s — partition
	// swaps move multi-megabyte shards, so this is deliberately generous).
	CallTimeout time.Duration
	// MaxAttempts is the total number of tries per Call, first included
	// (default 4). Only transient failures are retried.
	MaxAttempts int
	// BaseBackoff is the sleep before the second attempt; it doubles per
	// retry up to MaxBackoff, with jitter in [½,1]× (defaults 5ms / 500ms).
	BaseBackoff time.Duration
	MaxBackoff  time.Duration
}

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.DialTimeout <= 0 {
		p.DialTimeout = 5 * time.Second
	}
	if p.CallTimeout <= 0 {
		p.CallTimeout = 60 * time.Second
	}
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 4
	}
	if p.BaseBackoff <= 0 {
		p.BaseBackoff = 5 * time.Millisecond
	}
	if p.MaxBackoff <= 0 {
		p.MaxBackoff = 500 * time.Millisecond
	}
	return p
}

// retryClient wraps one *wire.Client with connect/call timeouts, bounded
// exponential backoff with jitter, and reconnect-on-broken-pipe, so a
// restarted server or a dropped packet costs a retry instead of a hung or
// failed epoch. Errors the server returned (serverError, e.g. a fencing
// rejection) pass through on the first attempt — only transport failures
// are retried. All methods are safe for concurrent use; the connection
// multiplexes concurrent calls, matching replies by request id.
type retryClient struct {
	addr   string
	name   string // human label for errors ("lock server", "partition server")
	tag    string // chaos identity ("rank0", "cluster"); empty = no chaos
	policy RetryPolicy
	chaos  *Chaos

	ctx    context.Context
	cancel context.CancelFunc

	mu     sync.Mutex
	c      *wire.Client
	closed bool
	jit    *rng.RNG

	retries    *obs.Counter
	reconnects *obs.Counter
}

// dialRetry connects to addr with the policy's dial timeout. The returned
// client lazily redials after transport errors.
func dialRetry(name, addr string, policy RetryPolicy, chaos *Chaos, tag string) (*retryClient, error) {
	rc := &retryClient{
		addr:   addr,
		name:   name,
		tag:    tag,
		policy: policy.withDefaults(),
		chaos:  chaos,
		jit:    rng.New(0xC0FFEE ^ uint64(len(addr))<<16 ^ uint64(len(name))),
	}
	rc.ctx, rc.cancel = context.WithCancel(context.Background())
	rc.bindMetrics(obs.NewQuietHub().Reg)
	c, err := rc.dial()
	if err != nil {
		return nil, err
	}
	rc.c = c
	return rc, nil
}

// bindMetrics (re)binds the retry/reconnect counters, so remoteStore.SetObs
// can move an already-dialed client onto the run's registry.
func (rc *retryClient) bindMetrics(reg *obs.Registry) {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	rc.retries = reg.Counter("pbg_dist_rpc_retries_total")
	rc.reconnects = reg.Counter("pbg_dist_rpc_reconnects_total")
}

func (rc *retryClient) dial() (*wire.Client, error) {
	conn, err := net.DialTimeout("tcp", rc.addr, rc.policy.DialTimeout)
	if err != nil {
		return nil, fmt.Errorf("dist: dial %s %s: %w", rc.name, rc.addr, err)
	}
	return wire.NewClient(conn), nil
}

// client returns the live connection, redialing if a previous attempt tore
// it down.
func (rc *retryClient) client() (*wire.Client, error) {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	if rc.closed {
		return nil, wire.ErrShutdown
	}
	if rc.c == nil {
		c, err := rc.dial()
		if err != nil {
			return nil, err
		}
		rc.c = c
		rc.reconnects.Inc()
	}
	return rc.c, nil
}

// dropConn discards the connection that produced a transport error, so the
// next attempt redials. Only the connection that failed is dropped — a
// concurrent caller may already have replaced it. When dropConn returns the
// connection's reader has exited: no late reply can be decoded into the
// reply of a call that has given up.
func (rc *retryClient) dropConn(c *wire.Client) {
	rc.mu.Lock()
	if rc.c == c {
		rc.c = nil
	}
	rc.mu.Unlock()
	_ = c.Close() // hanging up on a broken connection has nothing to report
}

// callOnce performs a single attempt with the per-call timeout, applying any
// chaos rule for this client's tag first.
func (rc *retryClient) callOnce(m *wire.Method, span uint64, args, reply any) error {
	method := m.Name
	if rc.chaos != nil {
		if err := rc.chaos.before(rc.tag, method); err != nil {
			return err
		}
	}
	c, err := rc.client()
	if err != nil {
		return err
	}
	call := c.Go(m, span, args, reply)
	timer := time.NewTimer(rc.policy.CallTimeout)
	defer timer.Stop()
	select {
	case <-call.Done:
		err := fromServer(call.Err)
		if err != nil && isTransientRPC(err) {
			rc.dropConn(c)
		}
		if err == nil && rc.chaos != nil {
			if err := rc.chaos.after(rc.tag, method, func() error {
				return fromServer(c.Call(m, span, args, reply))
			}); err != nil {
				return err
			}
		}
		return err
	case <-timer.C:
		rc.dropConn(c) // the late reply must not land in a reply the caller reuses
		return fmt.Errorf("%w: %s %s after %v", errCallTimeout, rc.name, method, rc.policy.CallTimeout)
	case <-rc.ctx.Done():
		rc.dropConn(c)
		return wire.ErrShutdown
	}
}

// Call invokes method with retries: transient transport failures back off
// exponentially (with jitter) and redial; server-returned errors and
// non-transient failures are returned immediately.
func (rc *retryClient) Call(method string, args, reply any) error {
	return rc.callSpan(method, 0, args, reply)
}

// callSpan is Call for a caller inside trace span `span` (0 = none): the id
// rides in the frame, and the server's span becomes that span's child.
func (rc *retryClient) callSpan(method string, span uint64, args, reply any) error {
	m := methodByName[method]
	if m == nil {
		return fmt.Errorf("dist: %s has no method %q", rc.name, method)
	}
	policy := rc.policy
	backoff := policy.BaseBackoff
	var err error
	for attempt := 0; attempt < policy.MaxAttempts; attempt++ {
		if attempt > 0 {
			rc.retries.Inc()
			d := backoff/2 + time.Duration(rc.jitterFloat()*float64(backoff/2))
			select {
			case <-time.After(d):
			case <-rc.ctx.Done():
				return wire.ErrShutdown
			}
			backoff *= 2
			if backoff > policy.MaxBackoff {
				backoff = policy.MaxBackoff
			}
		}
		err = rc.callOnce(m, span, args, reply)
		if err == nil || !isTransientRPC(err) {
			return err
		}
	}
	return fmt.Errorf("dist: %s %s failed after %d attempts: %w", rc.name, method, policy.MaxAttempts, err)
}

func (rc *retryClient) jitterFloat() float64 {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	return rc.jit.Float64()
}

// Close shuts the client down; in-flight Calls return wire.ErrShutdown.
func (rc *retryClient) Close() error {
	rc.cancel()
	rc.mu.Lock()
	c := rc.c
	rc.c, rc.closed = nil, true
	rc.mu.Unlock()
	if c != nil {
		return c.Close()
	}
	return nil
}
