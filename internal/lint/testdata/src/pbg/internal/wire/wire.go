// Package wire is a fixture stub mirroring the calling surface of the real
// pbg/internal/wire client, which the lockcall analyzer keys on. Analyzers
// match package paths by suffix, so this stub triggers the same logic as the
// real package.
package wire

// Method names one call of a service.
type Method struct{ ID uint16 }

// Call is one request in flight.
type Call struct{ Done chan struct{} }

// Client is the calling end of one connection.
type Client struct{}

// Go sends a request and returns without waiting for its reply.
func (c *Client) Go(m *Method, span uint64, args, reply any) *Call { return &Call{} }

// Call sends a request and waits for its reply.
func (c *Client) Call(m *Method, span uint64, args, reply any) error { return nil }
