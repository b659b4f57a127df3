package dist

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"pbg/internal/rng"
)

// Fault-injection errors. A dropped RPC looks like transport loss, so it is
// transient (the retryClient backs off and redials); a killed node is gone
// for good, so its error is terminal and fails the node.
var (
	errChaosDrop   = errors.New("dist: chaos drop")
	errChaosKilled = errors.New("dist: chaos killed")
)

// ChaosRule injects one class of fault into RPCs matching (Tag, Method).
// Empty Tag or Method matches everything. Probabilities are in [0,1] and are
// evaluated per call in the order drop-send, delay, (call executes),
// drop-reply, duplicate.
type ChaosRule struct {
	Tag    string // client identity, e.g. "rank1"; "" = any
	Method string // RPC method, e.g. "PartitionServer.Get"; "" = any

	// DropSend is the probability the request never reaches the server (the
	// call is not executed; the caller sees a transient error).
	DropSend float64
	// DropReply is the probability the reply is lost: the call executes on
	// the server, but the caller still sees a transient error — the
	// retry-then-idempotent-release path.
	DropReply float64
	// Delay stalls the call before it executes, with probability DelayProb
	// (Delay > 0 with DelayProb == 0 means always).
	Delay     time.Duration
	DelayProb float64
	// Duplicate is the probability the call is executed a second time after
	// the first completes, as if a retransmit had raced the reply.
	Duplicate float64
	// First limits the rule to the first N matching calls (0 = unlimited).
	First int

	// Before- and after-call effects are counted separately against First: a
	// retried call matches the before hook again, so one shared counter would
	// let the reply-side effects outlive their quota (or vice versa).
	matchedSend  int
	matchedReply int
}

// Chaos deterministically injects faults into a cluster's RPC traffic. Every
// retryClient is constructed with an identity tag (one per trainer rank,
// plus "cluster" for control-plane clients); rules select traffic by tag and
// method. A Chaos value is safe for concurrent use; the fault schedule is
// driven by a single seeded RNG, so a given seed yields a reproducible
// schedule up to goroutine interleaving.
type Chaos struct {
	mu     sync.Mutex
	r      *rng.RNG
	rules  []*ChaosRule
	killed map[string]bool
	kills  []*killRule
	holds  []*holdRule
	drops  int
	delays int
	dups   int
}

type killRule struct {
	tag    string
	method string
	after  int
	seen   int
}

type holdRule struct {
	tag, method       string
	untilTag, untilOf string
	claimed           bool
	release           chan struct{}
	released          bool
}

// NewChaos creates a fault injector with the given deterministic seed and
// rules.
func NewChaos(seed uint64, rules ...ChaosRule) *Chaos {
	c := &Chaos{r: rng.New(seed), killed: make(map[string]bool)}
	for i := range rules {
		r := rules[i]
		c.rules = append(c.rules, &r)
	}
	return c
}

// KillAfter schedules the death of the client identity tag: its first n RPCs
// matching method (empty = any) succeed, after which every call from that
// tag — any method, any server — fails with a terminal error, as if the
// process had been SIGKILLed. The node cannot even abandon its lease; only
// lease expiry recovers its bucket.
func (c *Chaos) KillAfter(tag, method string, n int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.kills = append(c.kills, &killRule{tag: tag, method: method, after: n})
}

// HoldUntil orders two clients' calls: the first RPC of tag matching method
// waits, before it executes, until a call of untilTag matching untilMethod
// has executed successfully. It makes "rank 1 holds a lease before rank 0
// asks for one" a fact of the schedule instead of a likely interleaving.
func (c *Chaos) HoldUntil(tag, method, untilTag, untilMethod string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.holds = append(c.holds, &holdRule{tag: tag, method: method, untilTag: untilTag,
		untilOf: untilMethod, release: make(chan struct{})})
}

func ruleMatches(tag, method, rTag, rMethod string) bool {
	return (rTag == "" || rTag == tag) && (rMethod == "" || rMethod == method)
}

// before runs under the injection point preceding call execution: it
// enforces kills, drops sends, and injects delays. A non-nil return means
// the call must not execute.
func (c *Chaos) before(tag, method string) error {
	c.mu.Lock()
	if c.killed[tag] {
		c.mu.Unlock()
		return fmt.Errorf("%w: %s", errChaosKilled, tag)
	}
	for _, k := range c.kills {
		if k.tag == tag && (k.method == "" || k.method == method) {
			k.seen++
			if k.seen > k.after {
				c.killed[tag] = true
				c.mu.Unlock()
				return fmt.Errorf("%w: %s", errChaosKilled, tag)
			}
		}
	}
	var hold chan struct{}
	for _, h := range c.holds {
		if !h.claimed && ruleMatches(tag, method, h.tag, h.method) {
			h.claimed, hold = true, h.release
		}
	}
	var delay time.Duration
	for _, r := range c.rules {
		if !ruleMatches(tag, method, r.Tag, r.Method) {
			continue
		}
		if r.First > 0 && r.matchedSend >= r.First {
			continue
		}
		r.matchedSend++
		if r.DropSend > 0 && c.r.Float64() < r.DropSend {
			c.drops++
			c.mu.Unlock()
			return fmt.Errorf("%w: send %s %s", errChaosDrop, tag, method)
		}
		if r.Delay > 0 && (r.DelayProb <= 0 || c.r.Float64() < r.DelayProb) {
			c.delays++
			if r.Delay > delay {
				delay = r.Delay
			}
		}
	}
	c.mu.Unlock()
	if hold != nil {
		<-hold
	}
	if delay > 0 {
		time.Sleep(delay)
	}
	return nil
}

// after runs once the call has executed successfully: it may drop the reply
// (returning a transient error even though the server applied the call) or
// duplicate the call via redo, exercising server-side idempotency.
func (c *Chaos) after(tag, method string, redo func() error) error {
	c.mu.Lock()
	for _, h := range c.holds {
		if !h.released && ruleMatches(tag, method, h.untilTag, h.untilOf) {
			h.released = true
			close(h.release)
		}
	}
	var dropReply, duplicate bool
	for _, r := range c.rules {
		if !ruleMatches(tag, method, r.Tag, r.Method) {
			continue
		}
		if r.First > 0 && r.matchedReply >= r.First {
			continue
		}
		r.matchedReply++
		if r.DropReply > 0 && c.r.Float64() < r.DropReply {
			dropReply = true
		}
		if r.Duplicate > 0 && c.r.Float64() < r.Duplicate {
			duplicate = true
		}
	}
	if dropReply {
		c.drops++
	}
	if duplicate {
		c.dups++
	}
	c.mu.Unlock()
	if duplicate {
		redo() // a retransmit's outcome is invisible to the original caller
	}
	if dropReply {
		return fmt.Errorf("%w: reply %s %s", errChaosDrop, tag, method)
	}
	return nil
}

// Stats summarises the faults injected so far, for CI logs.
func (c *Chaos) Stats() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	var dead []string
	for tag := range c.killed {
		dead = append(dead, tag)
	}
	sort.Strings(dead)
	return fmt.Sprintf("chaos: drops=%d delays=%d duplicates=%d killed=[%s]",
		c.drops, c.delays, c.dups, strings.Join(dead, " "))
}
