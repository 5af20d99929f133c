package ingest

import (
	"errors"
	"fmt"
	"net"
	"strings"
	"time"

	"videodrift/internal/vidsim"
	"videodrift/internal/wire"
)

// Client defaults.
const (
	// DefaultDialTimeout bounds each (re)connection attempt.
	DefaultDialTimeout  = 5 * time.Second
	DefaultReplyTimeout = 30 * time.Second
	DefaultMaxAttempts  = 8
	// DefaultRetryAfter is how long the client waits after a tenant-limit
	// Nack before it asks again.
	DefaultRetryAfter = 50 * time.Millisecond
	// DefaultMaxBackoff bounds the waits a Send, Flush or Close spends on
	// tenant-limit Nacks and on a failover's refused connections.
	DefaultMaxBackoff = 200
)

// window is how many frames a connection leaves unconfirmed at most: the
// frame that makes it this many asks for their confirmation.
const window = 8

// ClientConfig parameterizes a Client.
type ClientConfig struct {
	// Addr is the server's TCP address — or a comma-separated list of
	// addresses for a replicated deployment (primary first, standbys
	// after). The client sticks to one address while it works and
	// rotates to the next on connection failure, so a kill -9'd primary
	// hands the stream to its promoted standby without operator action.
	Addr string
	// Tenant is the stream identity every frame is sent under
	// (1..MaxTenant bytes).
	Tenant string
	// ReplyTimeout bounds the wait for each answer (<= 0 means
	// DefaultReplyTimeout).
	ReplyTimeout time.Duration
	// MaxAttempts bounds transport-level retries per Send, Flush or
	// Close — reconnects after torn writes, resends after corruption
	// Nacks (<= 0 means DefaultMaxAttempts). Waits on a server working as
	// designed — a fleet at its tenant limit, a standby promoting — have
	// their own, larger budget, DefaultMaxBackoff.
	MaxAttempts int
	// Sleep waits out DefaultRetryAfter and a failover's backoff (nil
	// means time.Sleep; tests inject to avoid wall-clock waits).
	Sleep func(time.Duration)
	// Now is the deadline clock (nil means time.Now).
	Now func() time.Time
	// TxFault optionally mangles the bytes of frame transmission msg (a
	// per-client counter that includes retries) before they hit the
	// wire, returning the bytes to send and whether to tear the
	// connection down after them — the seam faults.NetInjector.Tx plugs
	// into. Nil sends clean. A Sync always travels clean.
	TxFault func(msg int, b []byte) ([]byte, bool)
}

// ClientStats counts a client's wire activity.
type ClientStats struct {
	// Sent counts frame transmissions (including retries); Acked frames
	// confirmed; Nacks rejections of any kind; Retries re-sends of a
	// frame; Reconnects connection re-establishments after the first;
	// Failovers rotations to a different configured address.
	Sent, Acked, Nacks, Retries, Reconnects, Failovers int64
}

// NackError is returned when the server's rejection exhausts the
// retry budget (or is not retryable at all, like a sequence gap).
type NackError struct{ Nack Nack }

func (e *NackError) Error() string {
	return fmt.Sprintf("ingest: server nack code %d (seq %d): %s", e.Nack.Code, e.Nack.Seq, e.Nack.Reason)
}

// Client feeds one tenant's frame stream to an ingest server with
// exactly-once delivery. It opens every connection with a Sync, whose
// answer says where the server holds the stream, and then sends a window
// of frames: Send writes its frame and returns, and the frame that leaves
// window frames unconfirmed — and a stream's first — asks with a Sync
// written behind it and blocks on the answer, one cumulative Ack for all
// of them. A full queue at the server holds Send back, in its write or
// its ask. A frame is resent — across reconnects, corruption rejections
// and a tenant limit — until the server confirms it, and only frames the
// server reports it lacks are resent (the seq dedup covers a reconnect
// racing the old connection). A server that speaks another protocol
// version fails the Send at once with a *VersionError. A Client
// is not safe for concurrent use; one goroutine owns one tenant stream,
// matching the protocol's per-tenant total order.
type Client struct {
	cfg       ClientConfig
	addrs     []string
	addrIdx   int // index of the address currently (or last) connected
	connFails int // consecutive all-address connect failures
	conn      net.Conn
	rd        wire.Reader // the connection's answers
	synced    bool        // the connection's opening Sync was answered

	// The window: frames [base, seq) are unconfirmed, each sealed in its
	// slot slots[seq%window], which the frame window places later reuses;
	// [base, sent) went out on the current connection. hi is one past the
	// highest frame ever transmitted (a transmission below it is a retry).
	slots          [window][]byte
	base, sent, hi uint64
	seq            uint64 // next sequence number to assign
	ask            []byte // a Sync sent alone
	tx             int    // frame transmission counter (TxFault key)
	stats          ClientStats
}

// clientBufSize is a connection's answer buffer: an Ack, or a round's
// Nacks (a message beyond it is read into a buffer of its own).
const clientBufSize = 1 << 10

// Dial builds a client and establishes its first connection.
func Dial(cfg ClientConfig) (*Client, error) {
	if cfg.Tenant == "" || len(cfg.Tenant) > MaxTenant {
		return nil, fmt.Errorf("%w: tenant id must be 1..%d bytes", ErrMalformed, MaxTenant)
	}
	var addrs []string
	for _, a := range strings.Split(cfg.Addr, ",") {
		if a = strings.TrimSpace(a); a != "" {
			addrs = append(addrs, a)
		}
	}
	if len(addrs) == 0 {
		return nil, fmt.Errorf("%w: no server address", ErrMalformed)
	}
	if cfg.ReplyTimeout <= 0 {
		cfg.ReplyTimeout = DefaultReplyTimeout
	}
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = DefaultMaxAttempts
	}
	if cfg.Sleep == nil {
		cfg.Sleep = time.Sleep
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	c := &Client{cfg: cfg, addrs: addrs}
	if err := c.connect(); err != nil {
		return nil, err
	}
	return c, nil
}

// connect (re)establishes the TCP connection, preferring the address
// that last worked and rotating through the rest on failure.
func (c *Client) connect() error {
	var lastErr error
	for i := 0; i < len(c.addrs); i++ {
		idx := (c.addrIdx + i) % len(c.addrs)
		conn, err := net.DialTimeout("tcp", c.addrs[idx], DefaultDialTimeout)
		if err != nil {
			lastErr = err
			continue
		}
		if idx != c.addrIdx {
			c.addrIdx = idx
			c.stats.Failovers++
		}
		c.conn = conn
		c.rd = vdif.NewReader(conn, clientBufSize)
		c.synced, c.sent = false, c.base
		return nil
	}
	return lastErr
}

// drop closes the current connection (if any).
func (c *Client) drop() {
	if c.conn != nil {
		c.conn.Close()
		c.conn = nil
	}
}

// Flush blocks until the server has confirmed every frame Send took: one
// Sync, and resends of only what the server reports it lacks.
func (c *Client) Flush() error { return c.confirm() }

// Close confirms every frame Send took (Flush) and tears the connection
// down, returning Flush's error. The client's stream position is kept,
// so a later Send would reconnect and continue the sequence.
func (c *Client) Close() error {
	err := c.Flush()
	c.drop()
	return err
}

// Stats returns the client's wire counters.
func (c *Client) Stats() ClientStats { return c.stats }

// Seq returns the next sequence number the client will assign.
func (c *Client) Seq() uint64 { return c.seq }

// Send delivers one frame. It returns once the frame is written — unless
// it asks, when it blocks until the server has confirmed the window. On
// error the frame is not taken: the frames before it stay unconfirmed for
// the next Send, Flush or Close to retry, and Send may be called again
// with the same frame. Once the window's slots are warm a Send allocates
// nothing.
func (c *Client) Send(f vidsim.Frame) error {
	slot := &c.slots[c.seq%window]
	if need := frameSize(len(c.cfg.Tenant), len(f.Pixels)) + syncSize(len(c.cfg.Tenant)); cap(*slot) < need {
		*slot = make([]byte, 0, need) // room for the Sync an ask appends
	}
	*slot = appendFrame((*slot)[:0], c.cfg.Tenant, c.seq, f.W, f.H, f.Pixels)
	c.seq++
	// Quiet: the window has room and the connection is open and in step.
	// A stream's first frame is never quiet: Dial leaves the opening Sync
	// to it, and the round that opens a connection asks.
	if c.conn != nil && c.synced && c.sent == c.seq-1 && c.seq-c.base < window {
		if c.transmit(c.seq-1, false) == nil {
			return nil
		}
	}
	if err := c.confirm(); err != nil {
		c.seq--
		c.sent = min(c.sent, c.seq)
		return err
	}
	return nil
}

// confirm runs rounds until every frame in the window is confirmed or a
// budget runs out: (re)connect and open with a Sync, send what the server
// lacks and ask.
func (c *Client) confirm() error {
	attempts, backoffs := 0, 0
	var lastErr error
	for c.base < c.seq && attempts < c.cfg.MaxAttempts && backoffs < DefaultMaxBackoff {
		if c.conn == nil {
			if err := c.connect(); err != nil {
				lastErr = err
				if len(c.addrs) > 1 {
					// Every address refused. During a failover that is the
					// expected window while the standby promotes, so it spends
					// the larger DefaultMaxBackoff budget with a capped
					// exponential wait rather than the per-frame attempt budget.
					backoffs++
					if c.connFails < 10 {
						c.connFails++
					}
					d := 5 * time.Millisecond << uint(c.connFails)
					if d > 500*time.Millisecond {
						d = 500 * time.Millisecond
					}
					c.cfg.Sleep(d)
				} else {
					attempts++
				}
				continue
			}
			c.connFails = 0
			c.stats.Reconnects++
		}
		before := c.base
		nack, err := c.round()
		if err != nil {
			// A torn write, a lost or garbled answer: the frames may or may
			// not have been admitted. The next connection's Sync tells.
			c.drop()
			attempts++
			lastErr = err
			if errors.As(err, new(*NackError)) || errors.As(err, new(*VersionError)) {
				return err // the server is behind the window, or speaks another version: not retryable
			}
			continue
		}
		if nack == nil {
			if c.base == before {
				attempts++ // admitted nothing and rejected nothing: do not spin
			}
			continue
		}
		lastErr = &NackError{Nack: *nack}
		switch nack.Code {
		case NackTenantLimit:
			// No slot for the tenant yet: come back once one may have
			// freed up.
			backoffs++
			c.cfg.Sleep(DefaultRetryAfter)
		case NackMalformed, NackInternal:
			// Wire corruption or a transient server fault: resend.
			attempts++
		case NackBadSeq:
			// A gap behind an earlier rejection in the round; the Sync's
			// answer said where to resume.
			attempts++
		default:
			return lastErr // an unknown code is not retryable
		}
	}
	if c.base == c.seq {
		return nil
	}
	if lastErr == nil {
		lastErr = errors.New("ingest: send retries exhausted")
	}
	return fmt.Errorf("ingest: frames %d..%d not confirmed after %d attempts: %w", c.base, c.seq-1, attempts+backoffs, lastErr)
}

// round is one exchange on the current connection: the opening Sync if
// the connection has not had it, then every frame from sent on with a
// Sync behind the last, and the answers up to the Sync's. It returns the
// round's first Nack, if any; an error means the connection is unusable.
func (c *Client) round() (*Nack, error) {
	if !c.synced {
		if err := c.open(); err != nil {
			return nil, err
		}
		if c.base == c.seq {
			return nil, nil // the server had it all
		}
	}
	if c.sent == c.seq {
		if err := c.writeSync(); err != nil {
			return nil, err
		}
	}
	for c.sent < c.seq {
		if err := c.transmit(c.sent, c.sent == c.seq-1); err != nil {
			return nil, err
		}
	}
	return c.answers()
}

// open writes the connection's opening Sync and reads the answer, the
// Ack that reports what the server holds.
func (c *Client) open() error {
	if err := c.writeSync(); err != nil {
		return err
	}
	typ, payload, err := c.next()
	if err != nil {
		return err
	}
	if typ != MsgAck {
		return fmt.Errorf("ingest: unexpected answer type %d to a sync", typ)
	}
	a, err := DecodeAck(payload)
	if err != nil {
		return err
	}
	c.synced = true
	return c.confirmed(a.Seq)
}

// answers reads a round's answers: every Nack up to the Sync's Ack, which
// confirms what the server holds.
func (c *Client) answers() (*Nack, error) {
	var first *Nack
	for {
		typ, payload, err := c.next()
		if err != nil {
			return nil, err
		}
		switch typ {
		case MsgNack:
			n, err := DecodeNack(payload)
			if err != nil {
				return nil, err
			}
			c.stats.Nacks++
			if first == nil {
				first = &n
			}
		case MsgAck:
			a, err := DecodeAck(payload)
			if err != nil {
				return nil, err
			}
			return first, c.confirmed(a.Seq)
		default:
			return nil, fmt.Errorf("ingest: unexpected reply type %d", typ)
		}
	}
}

// confirmed records that the server holds every frame below next. The
// frames from there on must go out again; a server that lacks frames the
// client no longer holds has lost them, which no resend repairs.
func (c *Client) confirmed(next uint64) error {
	if next < c.base {
		return &NackError{Nack{Seq: c.base, Code: NackBadSeq,
			Reason: fmt.Sprintf("server resumes at seq %d, below the client's unconfirmed %d", next, c.base)}}
	}
	next = min(next, c.seq)
	c.stats.Acked += int64(next - c.base)
	c.base, c.sent = next, next
	return nil
}

// transmit writes frame s — with a Sync behind it in the same write when
// it asks — through the TxFault seam.
func (c *Client) transmit(s uint64, ask bool) error {
	b := c.slots[s%window]
	out, tear := b, false
	if c.cfg.TxFault != nil {
		out, tear = c.cfg.TxFault(c.tx, b)
	}
	c.tx++
	c.stats.Sent++
	if s < c.hi {
		c.stats.Retries++
	} else {
		c.hi = s + 1
	}
	if tear {
		// Injected torn write: the connection dies mid-message, like a
		// crashing sender.
		c.conn.Write(out)
		c.drop()
		return fmt.Errorf("ingest: injected torn write (tx %d)", c.tx-1)
	}
	if ask {
		// Into the slot's spare capacity: its frame bytes stay as they are.
		out = appendSync(out, Sync{Tenant: c.cfg.Tenant, Seq: c.base})
	}
	if err := c.write(out); err != nil {
		return err
	}
	c.sent = s + 1
	return nil
}

// writeSync writes a Sync alone.
func (c *Client) writeSync() error {
	c.ask = appendSync(c.ask[:0], Sync{Tenant: c.cfg.Tenant, Seq: c.base})
	return c.write(c.ask)
}

// write writes b whole on the current connection, dropping it on failure.
func (c *Client) write(b []byte) error {
	if _, err := c.conn.Write(b); err != nil {
		c.drop()
		return err
	}
	return nil
}

// next reads the next answer within ReplyTimeout.
func (c *Client) next() (uint8, []byte, error) {
	c.conn.SetReadDeadline(c.cfg.Now().Add(c.cfg.ReplyTimeout))
	return c.rd.Next()
}
