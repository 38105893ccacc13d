// Package faults provides deterministic fault injection for the wire
// protocol: a net.Conn wrapper that drops, delays, truncates or resets the
// connection at a chosen frame boundary, a dialer that hands out a
// per-connection fault plan, and a listener wrapper that synthesizes
// transient Accept errors. Tests use it to prove the protocol tier's
// retry, reconnect, circuit-breaker and drain behavior without real
// network flakiness — every schedule is explicit, so failures reproduce
// exactly.
package faults

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"
)

// Op selects the direction of the wrapped connection a rule applies to.
type Op uint8

// Directions.
const (
	Read Op = iota
	Write
)

// String implements fmt.Stringer.
func (o Op) String() string {
	if o == Read {
		return "read"
	}
	return "write"
}

// Action is what happens when a rule fires.
type Action uint8

// Actions.
const (
	// Drop closes the connection cleanly: the peer observes EOF, the local
	// side an ErrInjected error.
	Drop Action = iota
	// Reset aborts the connection with a TCP RST when the underlying
	// transport supports SO_LINGER; otherwise it degrades to Drop. The peer
	// observes ECONNRESET mid-frame rather than a clean close.
	Reset
	// Delay sleeps for the rule's Delay before letting the operation
	// proceed. The rule consumes itself; later frames pass undelayed.
	Delay
	// Truncate lets only KeepBytes bytes of the target frame through, then
	// closes the connection — the peer is left holding a torn frame.
	Truncate
	// Pause stalls the target frame mid-transfer: one byte crosses, then
	// the operation sleeps for the rule's Delay before the rest continues.
	// The peer holds a torn frame for the duration but the connection
	// survives. The rule consumes itself.
	Pause
	// Bandwidth caps throughput in the rule's direction to Rate bytes per
	// second from the target frame onward. Unlike every other action the
	// rule stays live for the connection's whole life — a slow link, not a
	// one-shot glitch.
	Bandwidth
)

// String implements fmt.Stringer.
func (a Action) String() string {
	switch a {
	case Drop:
		return "drop"
	case Reset:
		return "reset"
	case Delay:
		return "delay"
	case Truncate:
		return "truncate"
	case Pause:
		return "pause"
	case Bandwidth:
		return "bandwidth"
	default:
		return fmt.Sprintf("action(%d)", uint8(a))
	}
}

// ErrInjected is returned (wrapped) by operations killed by a fault rule,
// so tests can tell injected failures from real ones.
var ErrInjected = errors.New("faults: injected fault")

// Rule triggers one Action when the Nth frame (1-based) crosses the
// connection in the given direction. Frame boundaries are recovered from
// the protocol's own length prefix, so rules align with requests and
// responses, not with arbitrary segment boundaries.
type Rule struct {
	Op     Op
	Nth    int
	Action Action
	// Delay is the sleep for Action Delay, and the mid-frame stall for
	// Action Pause.
	Delay time.Duration
	// KeepBytes is how much of the target frame Truncate lets through
	// (0 cuts even the length prefix).
	KeepBytes int
	// Rate is the Bandwidth cap in bytes per second.
	Rate int
}

// tracker recovers frame boundaries from a byte stream carrying
// [u32 length][type][payload] frames. With record set it also keeps each
// frame's type byte, in order; a Recorder sets it, a Conn does not, so a
// long-lived faulty link keeps no history.
type tracker struct {
	hdr       [4]byte
	hdrN      int
	remaining int  // body bytes left in the current frame
	frames    int  // frames whose first byte has been seen
	wantType  bool // the next body byte is the frame's type byte
	record    bool
	types     []byte
}

// current returns the 1-based index of the frame the next byte belongs to.
func (t *tracker) current() int {
	if t.hdrN == 0 && t.remaining == 0 {
		return t.frames + 1 // next byte starts a new frame
	}
	return t.frames
}

// feed advances the tracker by n stream bytes.
func (t *tracker) feed(p []byte) {
	for len(p) > 0 {
		if t.remaining == 0 {
			if t.hdrN == 0 {
				t.frames++
			}
			k := copy(t.hdr[t.hdrN:], p)
			t.hdrN += k
			p = p[k:]
			if t.hdrN == 4 {
				t.remaining = int(uint32(t.hdr[0]) | uint32(t.hdr[1])<<8 |
					uint32(t.hdr[2])<<16 | uint32(t.hdr[3])<<24)
				t.hdrN = 0
				t.wantType = t.record
			}
			continue
		}
		if t.wantType {
			t.types = append(t.types, p[0])
			t.wantType = false
		}
		k := t.remaining
		if k > len(p) {
			k = len(p)
		}
		t.remaining -= k
		p = p[k:]
	}
}

// rest returns how many of the next stream bytes the tracker can place
// without seeing them: the remainder of the current frame's body, else
// the remainder of a 4-byte length prefix (all of it at a frame start).
func (t *tracker) rest() int {
	if t.remaining > 0 {
		return t.remaining
	}
	return 4 - t.hdrN
}

// Conn wraps a net.Conn and applies fault rules at frame boundaries. All
// methods are safe for concurrent use; reads and writes are tracked
// independently. An operation that spans frames — a coalesced write of
// several frames, a buffered read — is cut at the frame boundaries, so
// every frame start consults the rules however the peer batches its I/O.
type Conn struct {
	net.Conn

	mu     sync.Mutex
	rules  []Rule
	rd, wr tracker
	killed bool
}

// Wrap applies rules to conn.
func Wrap(conn net.Conn, rules ...Rule) *Conn {
	return &Conn{Conn: conn, rules: append([]Rule(nil), rules...)}
}

// match pops the first live rule for (op, frame); nil if none fires.
// Bandwidth rules are persistent: they fire on every frame at or past
// their Nth and are never consumed.
func (c *Conn) match(op Op, frame int) *Rule {
	for i := range c.rules {
		r := &c.rules[i]
		if r.Op != op {
			continue
		}
		if r.Action == Bandwidth {
			if r.Nth > 0 && frame >= r.Nth {
				rule := *r
				return &rule
			}
			continue
		}
		if r.Nth > 0 && r.Nth == frame {
			rule := *r
			r.Nth = -1 // consumed
			return &rule
		}
	}
	return nil
}

// kill closes the connection, with an RST when asked and possible.
func (c *Conn) kill(reset bool) {
	c.killed = true
	if tc, ok := c.Conn.(*net.TCPConn); ok && reset {
		tc.SetLinger(0)
	}
	c.Conn.Close()
}

// verdict is what a matched rule does to the current operation.
type verdict struct {
	budget int           // byte budget, -1 = unlimited
	pause  time.Duration // mid-frame stall after the first byte (Pause)
	rate   int           // bytes/sec cap (Bandwidth), 0 = uncapped
}

// apply runs one operation through the rule table. It returns the
// operation's verdict or an error if the connection was killed.
func (c *Conn) apply(op Op, n int) (verdict, error) {
	c.mu.Lock()
	if c.killed {
		c.mu.Unlock()
		return verdict{}, fmt.Errorf("%w: connection killed (%s)", ErrInjected, op)
	}
	t := &c.rd
	if op == Write {
		t = &c.wr
	}
	rule := c.match(op, t.current())
	if rule == nil {
		c.mu.Unlock()
		return verdict{budget: -1}, nil
	}
	switch rule.Action {
	case Delay:
		c.mu.Unlock()
		time.Sleep(rule.Delay)
		return verdict{budget: -1}, nil
	case Truncate:
		if rule.KeepBytes < n {
			n = rule.KeepBytes
		}
		c.mu.Unlock()
		return verdict{budget: n}, nil
	case Pause:
		c.mu.Unlock()
		return verdict{budget: -1, pause: rule.Delay}, nil
	case Bandwidth:
		c.mu.Unlock()
		return verdict{budget: -1, rate: rule.Rate}, nil
	default: // Drop, Reset
		c.kill(rule.Action == Reset)
		c.mu.Unlock()
		return verdict{}, fmt.Errorf("%w: %s on frame %d (%s)", ErrInjected, rule.Action, rule.Nth, op)
	}
}

// throttle sleeps long enough that n bytes took at least n/rate seconds.
func throttle(n, rate int) {
	if n > 0 && rate > 0 {
		time.Sleep(time.Duration(float64(n) / float64(rate) * float64(time.Second)))
	}
}

// Read implements net.Conn. A read stops at the end of what is known of
// the current frame — its length prefix, then its body — so the next
// frame's first byte always arrives in a Read of its own.
func (c *Conn) Read(p []byte) (int, error) {
	c.mu.Lock()
	limit := c.rd.rest()
	c.mu.Unlock()
	if limit < len(p) {
		p = p[:limit]
	}
	v, err := c.apply(Read, len(p))
	if err != nil {
		return 0, err
	}
	if v.budget >= 0 && v.budget < len(p) {
		// Let the truncated tail through, then cut the connection so the
		// reader is left mid-frame.
		if v.budget > 0 {
			n, err := c.Conn.Read(p[:v.budget])
			c.mu.Lock()
			c.rd.feed(p[:n])
			c.kill(false)
			c.mu.Unlock()
			return n, err
		}
		c.mu.Lock()
		c.kill(false)
		c.mu.Unlock()
		return 0, fmt.Errorf("%w: truncated read", ErrInjected)
	}
	if v.pause > 0 && len(p) > 0 {
		// Deliver one byte, then stall — the local reader (and through it
		// the peer's frame) hangs mid-frame for the pause.
		n, err := c.Conn.Read(p[:1])
		c.mu.Lock()
		c.rd.feed(p[:n])
		c.mu.Unlock()
		time.Sleep(v.pause)
		return n, err
	}
	n, err := c.Conn.Read(p)
	c.mu.Lock()
	c.rd.feed(p[:n])
	c.mu.Unlock()
	throttle(n, v.rate)
	return n, err
}

// Write implements net.Conn. The buffer is written frame by frame.
func (c *Conn) Write(p []byte) (int, error) {
	var done int
	for done < len(p) {
		c.mu.Lock()
		t := c.wr // a copy, fed ahead to find where the current frame ends
		c.mu.Unlock()
		seg := p[done:]
		k := min(t.rest(), len(seg))
		if t.remaining == 0 { // in the length prefix: the body follows it
			t.feed(seg[:k])
			k = min(k+t.remaining, len(seg))
		}
		n, err := c.writeFrame(seg[:k])
		done += n
		if err != nil {
			return done, err
		}
	}
	return done, nil
}

// writeFrame writes bytes of a single frame under the rule table.
func (c *Conn) writeFrame(p []byte) (int, error) {
	v, err := c.apply(Write, len(p))
	if err != nil {
		return 0, err
	}
	if v.budget >= 0 && v.budget < len(p) {
		var n int
		if v.budget > 0 {
			n, err = c.Conn.Write(p[:v.budget])
		}
		c.mu.Lock()
		c.wr.feed(p[:n])
		c.kill(false)
		c.mu.Unlock()
		if err == nil {
			err = fmt.Errorf("%w: truncated write", ErrInjected)
		}
		return n, err
	}
	if v.pause > 0 && len(p) > 0 {
		// Send one byte, stall, then send the rest — the peer is left
		// holding a torn frame for the duration.
		n, err := c.Conn.Write(p[:1])
		c.mu.Lock()
		c.wr.feed(p[:n])
		c.mu.Unlock()
		if err != nil {
			return n, err
		}
		time.Sleep(v.pause)
		m, err := c.Conn.Write(p[1:])
		c.mu.Lock()
		c.wr.feed(p[n : n+m])
		c.mu.Unlock()
		return n + m, err
	}
	n, err := c.Conn.Write(p)
	c.mu.Lock()
	c.wr.feed(p[:n])
	c.mu.Unlock()
	throttle(n, v.rate)
	return n, err
}

// Close implements net.Conn.
func (c *Conn) Close() error {
	c.mu.Lock()
	c.killed = true
	c.mu.Unlock()
	return c.Conn.Close()
}

// Dialer returns a dial function (compatible with the protocol client's
// WithDialer option) that wraps each new connection with the rules the
// plan assigns to it. conn is the 1-based index of the connection dialed
// through this dialer; a nil return means the connection is clean.
func Dialer(plan func(conn int) []Rule) func(addr string) (net.Conn, error) {
	var mu sync.Mutex
	dialed := 0
	return func(addr string) (net.Conn, error) {
		mu.Lock()
		dialed++
		n := dialed
		mu.Unlock()
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			return nil, err
		}
		rules := plan(n)
		if len(rules) == 0 {
			return conn, nil
		}
		return Wrap(conn, rules...), nil
	}
}

// FlakyListener wraps a net.Listener so the first failures Accept calls
// return a synthetic transient error before delegating. It exists to prove
// accept loops survive transient errno storms (EMFILE and friends) instead
// of dying with the first error.
type FlakyListener struct {
	net.Listener

	mu       sync.Mutex
	failures int
	seen     int
}

// ErrTransient is the synthetic temporary Accept error.
var ErrTransient = errors.New("faults: transient accept error")

// NewFlakyListener makes ln fail its first failures Accepts.
func NewFlakyListener(ln net.Listener, failures int) *FlakyListener {
	return &FlakyListener{Listener: ln, failures: failures}
}

// Accept implements net.Listener.
func (l *FlakyListener) Accept() (net.Conn, error) {
	l.mu.Lock()
	fail := l.seen < l.failures
	l.seen++
	l.mu.Unlock()
	if fail {
		return nil, fmt.Errorf("%w (%d)", ErrTransient, l.seen)
	}
	return l.Listener.Accept()
}

// Accepts returns how many Accept calls the listener has seen.
func (l *FlakyListener) Accepts() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.seen
}
