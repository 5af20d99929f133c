package replica

import (
	"errors"
	"fmt"
	"net"
	"sync"

	"videodrift/internal/store"
	"videodrift/internal/telemetry"
)

// ErrNoState reports a promotion attempt before any generation was
// replicated — there is nothing to promote.
var ErrNoState = errors.New("replica: no replicated state")

// StandbyConfig parameterizes a replication standby.
type StandbyConfig struct {
	// Tracer records replica_delta_applied / replica_promoted events.
	Tracer *telemetry.Tracer
	// Logf logs connection churn; nil is silent.
	Logf func(format string, args ...any)
}

// Standby accepts replication streams from a primary and applies them
// into a warm in-memory checkpoint: greeting every connection with its
// last applied generation, verifying the delta CRC chain against the
// exact bytes the primary sent, and fencing any stream whose epoch is
// stale. Promote turns the standby into a primary-elect: it bumps the
// fencing epoch past everything seen, severs the stream, and hands the
// owner the latest checkpoint to build a live fleet from.
type Standby struct {
	cfg StandbyConfig

	mu        sync.Mutex
	epoch     uint64 // highest epoch seen (streamed or seeded)
	promoted  bool
	cp        *store.Checkpoint
	crcs      []uint32 // wire-byte entry CRCs — never from a re-encode
	forceFull bool     // next Hello asks for a full (chain broke)
	applied   uint64   // generations applied over the lifetime
	conns     map[net.Conn]struct{}
	closed    bool
}

// NewStandby builds a standby. It does not listen; pass an accepted
// listener to Serve.
func NewStandby(cfg StandbyConfig) *Standby {
	return &Standby{
		cfg:   cfg,
		conns: make(map[net.Conn]struct{}),
	}
}

// Seed primes the standby with a locally loaded checkpoint, so the
// first Hello resumes from its generation
// instead of asking for a full. crcs must be the wire-byte entry CRCs
// (store.DecodeWithCRCs); nil recomputes them from the blobs.
func (s *Standby) Seed(cp *store.Checkpoint, crcs []uint32) error {
	if cp == nil {
		return nil
	}
	if crcs == nil {
		var err error
		if crcs, err = store.EntryCRCs(cp); err != nil {
			return err
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.cp, s.crcs = cp, crcs
	if cp.Epoch > s.epoch {
		s.epoch = cp.Epoch
	}
	return nil
}

// Epoch returns the highest fencing epoch this standby has seen.
func (s *Standby) Epoch() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.epoch
}

// Gen returns the last applied generation (0 before first apply).
func (s *Standby) Gen() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.cp == nil {
		return 0
	}
	return s.cp.Gen
}

// Applied returns the count of generations applied over the lifetime.
func (s *Standby) Applied() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.applied
}

// Latest returns the newest applied checkpoint (nil before any).
func (s *Standby) Latest() *store.Checkpoint {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cp
}

// logf logs through the configured sink.
func (s *Standby) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// Serve accepts replication connections until the listener closes.
// The owner closes ln to stop; Serve then returns nil.
func (s *Standby) Serve(ln net.Listener) error {
	for {
		conn, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed || errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return nil
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		go s.handle(conn)
	}
}

// handle speaks one replication connection: Hello first, then streamed
// generations until the peer drops, an epoch fences, or the chain
// breaks (which closes the connection so the reconnect renegotiates
// from a fresh Hello).
func (s *Standby) handle(conn net.Conn) {
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		conn.Close()
	}()

	s.mu.Lock()
	h := Hello{Epoch: s.epoch}
	if s.cp != nil && !s.forceFull {
		h.Gen = s.cp.Gen
	}
	s.forceFull = false
	s.mu.Unlock()
	if _, err := conn.Write(EncodeHello(h)); err != nil {
		return
	}

	var seq uint64
	for {
		msgType, payload, err := ReadMsg(conn)
		if err != nil {
			return
		}
		if msgType != MsgFull && msgType != MsgDelta {
			s.logf("replica: unexpected message type %d", msgType)
			return
		}
		st, err := DecodeState(payload)
		if err != nil {
			s.logf("replica: bad state message: %v", err)
			return
		}
		seq++
		if st.Seq != seq {
			s.logf("replica: sequence gap: got %d, want %d", st.Seq, seq)
			return
		}
		reply, ok := s.apply(msgType, st)
		if _, err := conn.Write(reply); err != nil {
			return
		}
		if !ok {
			return
		}
	}
}

// apply validates and applies one streamed generation, returning the
// wire reply and whether the connection should stay open.
func (s *Standby) apply(msgType uint8, st State) (reply []byte, keepOpen bool) {
	s.mu.Lock()
	if s.promoted || st.Epoch < s.epoch {
		epoch := s.epoch
		s.mu.Unlock()
		s.logf("replica: fencing stream at epoch %d (ours %d)", st.Epoch, epoch)
		return EncodeFenced(Fenced{Epoch: epoch}), false
	}
	if st.Epoch > s.epoch {
		s.epoch = st.Epoch
	}
	from, fromCRCs := s.cp, s.crcs
	s.mu.Unlock()

	// A full is the delta from nothing, so both kinds take one path.
	kind := "delta"
	if msgType == MsgFull {
		kind, from, fromCRCs = "full", &store.Checkpoint{}, nil
	}
	var (
		next     *store.Checkpoint
		nextCRCs []uint32
	)
	d, err := store.DecodeDelta(st.Payload)
	if err == nil && from == nil {
		err = fmt.Errorf("%w: delta with no base", store.ErrDeltaBase)
	}
	if err == nil {
		next, nextCRCs, err = store.ApplyDelta(from, fromCRCs, d)
	}
	if err == nil && next.Gen != st.Gen {
		err = fmt.Errorf("envelope gen %d disagrees with stream gen %d", next.Gen, st.Gen)
	}
	if err != nil {
		// Whatever this generation's fault — a broken chain, an entry this
		// build cannot rebuild — it says nothing of the primary's epoch:
		// keep the state, renegotiate from a full.
		s.logf("replica: apply %s gen %d: %v", kind, st.Gen, err)
		s.mu.Lock()
		s.forceFull = true
		gen := uint64(0)
		if s.cp != nil {
			gen = s.cp.Gen
		}
		s.mu.Unlock()
		return EncodeApplied(Applied{Gen: gen}), false
	}

	s.mu.Lock()
	s.cp, s.crcs = next, nextCRCs
	s.applied++
	s.mu.Unlock()
	s.cfg.Tracer.ReplicaDeltaApplied(st.Gen, st.Epoch, kind, len(st.Payload))
	return EncodeApplied(Applied{Gen: st.Gen}), true
}

// Promote turns the standby into a primary-elect: it bumps the fencing
// epoch past every epoch seen, stamps it on the latest checkpoint,
// severs the replication stream (any reconnecting stale primary is
// answered with Fenced), and returns the checkpoint to build a live
// fleet from plus the new epoch. Promotion is terminal — the standby
// never applies another stream.
func (s *Standby) Promote(reason string) (*store.Checkpoint, uint64, error) {
	s.mu.Lock()
	if s.cp == nil {
		s.mu.Unlock()
		return nil, 0, ErrNoState
	}
	if !s.promoted {
		s.promoted = true
		s.epoch++
		s.cp.Epoch = s.epoch
	}
	cp, epoch := s.cp, s.epoch
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	for _, c := range conns {
		c.Close()
	}
	s.logf("replica: promoted at gen %d, epoch %d (%s)", cp.Gen, epoch, reason)
	s.cfg.Tracer.ReplicaPromoted(cp.Gen, epoch, reason)
	return cp, epoch, nil
}

// Close severs every connection; Serve returns after its listener is
// closed by the owner.
func (s *Standby) Close() {
	s.mu.Lock()
	s.closed = true
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	for _, c := range conns {
		c.Close()
	}
}
