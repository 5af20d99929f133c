package ingest

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"videodrift/internal/wire"
)

// DefaultReadTimeout bounds how long the server waits for one complete
// message — the slow-loris guard: a connection that trickles bytes
// slower than a message per timeout is cut, it cannot pin a handler
// goroutine forever.
const DefaultReadTimeout = 30 * time.Second

// ServerConfig parameterizes a Server.
type ServerConfig struct {
	// ReadTimeout is the per-message read deadline (<= 0 means
	// DefaultReadTimeout).
	ReadTimeout time.Duration
	// Now is the deadline clock (nil means time.Now).
	Now func() time.Time
	// Logf logs connection-level faults (nil is silent).
	Logf func(format string, args ...interface{})
}

// Server accepts tenant connections speaking the wire protocol and
// routes their frames. Each connection is one goroutine reading one
// message at a time. It answers a frame only when it rejects it, and
// every Sync with an Ack. The answer sent, the connection feeds the fleet
// the frames it has queued, or leaves them to whoever holds the pump
// (Router.feed).
// Header-level damage (bad magic, truncation, version skew)
// desynchronizes the stream, so those close the connection after a
// best-effort Nack; payload-level damage (CRC mismatch, malformed
// frame) leaves the stream aligned, so those Nack and keep reading —
// a client with one corrupted frame does not lose its connection.
type Server struct {
	router *Router
	cfg    ServerConfig
	// done closes with Close: a connection waiting for room in its
	// tenant's queue gives up.
	done chan struct{}

	mu     sync.Mutex
	ln     net.Listener
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup
}

// NewServer builds a server over a router.
func NewServer(r *Router, cfg ServerConfig) *Server {
	if cfg.ReadTimeout <= 0 {
		cfg.ReadTimeout = DefaultReadTimeout
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	return &Server{router: r, cfg: cfg, done: make(chan struct{}), conns: make(map[net.Conn]struct{})}
}

// ListenAndServe listens on addr (TCP) and serves until Close.
func (s *Server) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(ln)
}

// Serve accepts connections on ln until Close. It always returns a
// non-nil error; after Close the error is net.ErrClosed.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return net.ErrClosed
	}
	s.ln = ln
	s.mu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return err
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return net.ErrClosed
		}
		s.conns[conn] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go func() {
			defer s.wg.Done()
			s.serveConn(conn)
			s.mu.Lock()
			delete(s.conns, conn)
			s.mu.Unlock()
		}()
	}
}

// Addr returns the listener's address (nil before Serve).
func (s *Server) Addr() net.Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return nil
	}
	return s.ln.Addr()
}

// Close stops accepting, closes every live connection and waits for
// the handlers to drain.
func (s *Server) Close() error {
	s.mu.Lock()
	if !s.closed {
		s.closed = true
		close(s.done)
	}
	ln := s.ln
	for c := range s.conns { //lint:allow determinism closing every connection is order-independent
		c.Close()
	}
	s.mu.Unlock()
	var err error
	if ln != nil {
		err = ln.Close()
	}
	s.wg.Wait()
	return err
}

func (s *Server) logf(format string, args ...interface{}) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// serveConn runs one connection's loop. The steady path stays on this
// goroutine from socket to verdict and allocates nothing: one buffered
// read, one decode into a pixel buffer off the router's free list, the
// router's queue, an answer (if any) out of a reused scratch — and then,
// once no further message is waiting in the read buffer, the fleet is fed
// right here, or by whoever holds the pump (Router.feed), and the
// buffers go back. So a Sync written behind a frame is answered before
// the frame is processed, and frames that arrived together are fed by
// one Pump. While that feed runs a selection or a training — or its one
// more pump of what other connections queued behind it — this connection
// does not read its socket: its client sees one slow answer (DESIGN.md
// §14).
func (s *Server) serveConn(conn net.Conn) {
	defer conn.Close()
	rd := vdif.NewReader(conn, wire.ConnBufSize)
	dec := frameDecoder{free: &s.router.free}
	reply := make([]byte, 0, ackSize)
	feed := func() {
		if err := s.router.feed(); err != nil {
			s.logf("ingest: pump: %v", err)
		}
	}
	// unfed: this connection queued a frame (or attached a tenant) and has
	// not fed the fleet since. It feeds whatever becomes of the connection.
	unfed := false
	defer func() {
		if unfed {
			feed()
		}
	}()
	for {
		if unfed && !rd.Buffered() {
			feed()
			unfed = false
		}
		conn.SetReadDeadline(s.cfg.Now().Add(s.cfg.ReadTimeout))
		msgType, payload, err := rd.Next()
		switch {
		case err == nil:
		case errors.Is(err, io.EOF):
			return // clean close between messages
		case errors.Is(err, ErrChecksum):
			// The stream is still aligned (the declared payload was fully
			// read); reject the frame, keep the connection.
			s.router.CountMalformed()
			s.writeMsg(conn, EncodeNack(Nack{Code: NackMalformed, Reason: "payload checksum mismatch"}))
			continue
		default:
			// Header damage, truncation, version skew, oversize, timeout:
			// the stream position is unknowable — best-effort Nack, drop
			// the connection.
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				err = fmt.Errorf("no complete message within %v (slow client)", s.cfg.ReadTimeout)
			}
			s.router.CountMalformed()
			s.logf("ingest: dropping connection %s: %v", conn.RemoteAddr(), err)
			s.writeMsg(conn, EncodeNack(Nack{Code: NackMalformed, Reason: err.Error()}))
			return
		}
		switch {
		case msgType == MsgSync:
			tenant, seq, err := parseSync(payload)
			if err != nil {
				s.writeMsg(conn, EncodeNack(Nack{Code: NackMalformed, Reason: err.Error()}))
				continue
			}
			next, attached := s.router.position(tenant, seq, true)
			unfed = unfed || attached
			if !s.writeMsg(conn, appendAck(reply[:0], Ack{Seq: next})) {
				return
			}
		case msgType == MsgFrame:
			tenant, f, err := dec.decode(payload)
			if err != nil {
				s.router.CountMalformed()
				s.writeMsg(conn, EncodeNack(Nack{Code: NackMalformed, Reason: err.Error()}))
				continue
			}
			v := s.router.admit(tenant, f, s.done, feed)
			unfed = unfed || v.queued()
			if v.Ack {
				continue // the next answered Sync confirms it
			}
			if !s.writeMsg(conn, EncodeNack(Nack{Seq: uint64(f.Index), Code: v.Code, Reason: v.Reason})) {
				return
			}
		default:
			s.writeMsg(conn, EncodeNack(Nack{Code: NackMalformed,
				Reason: fmt.Sprintf("unexpected message type %d", msgType)}))
		}
	}
}

// writeMsg writes one wire message, reporting whether the connection
// is still usable.
func (s *Server) writeMsg(conn net.Conn, b []byte) bool {
	if _, err := conn.Write(b); err != nil {
		s.logf("ingest: write to %s: %v", conn.RemoteAddr(), err)
		return false
	}
	return true
}
