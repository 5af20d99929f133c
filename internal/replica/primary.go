package replica

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"videodrift/internal/store"
	"videodrift/internal/telemetry"
)

// ErrFenced reports that a standby answered with a higher fencing
// epoch: a newer primary exists and this one must stop replicating
// (and, in driftserve, stop serving — split-brain prevention).
var ErrFenced = errors.New("replica: fenced by a newer epoch")

// A primary's dial to a standby, and each hello/ack round trip with it,
// give up after these.
const (
	dialTimeout  = 2 * time.Second
	replyTimeout = 10 * time.Second
)

// PrimaryConfig parameterizes a replication primary.
type PrimaryConfig struct {
	// Addrs are the standby replication addresses the primary dials.
	Addrs []string
	// Epoch is the fencing epoch this primary streams under (≥ 1; a
	// warm-restarted primary resumes the epoch from its checkpoint).
	Epoch uint64
	// Capture produces a consistent checkpoint of the fleet between
	// batches; nil results skip the cycle. The primary stamps Gen and
	// Epoch on the returned checkpoint.
	Capture func() *store.Checkpoint
	// Interval is the steady-state replication cadence of Run
	// (default 1s).
	Interval time.Duration
	// Tracer records replica_delta_sent events and the lag gauge.
	Tracer *telemetry.Tracer
	// Logf logs connection churn; nil is silent.
	Logf func(format string, args ...any)
	// OnFenced is called once, with the winning epoch, when any standby
	// fences this primary.
	OnFenced func(epoch uint64)
	// TxFault, when set, intercepts every outgoing message (the
	// replication-fault seam; the tests place a tear by hand): it may
	// rewrite the bytes and report tear=true, in which case the primary
	// writes the mangled prefix and drops the connection — a torn
	// stream mid-generation.
	TxFault func(msg int, b []byte) ([]byte, bool)
}

// standbyLink is the primary's view of one standby connection. connMu
// guards the conn pointer only (so Close can sever a link mid-I/O);
// the generation bookkeeping is guarded by the primary's mu, and seq
// is touched only by the single Cycle goroutine.
type standbyLink struct {
	addr string

	connMu sync.Mutex
	conn   net.Conn

	seq uint64 // per-connection message sequence

	// heldGen is the generation the standby holds (from its Hello, then
	// from our successful sends); appliedGen is the last generation it
	// acknowledged. Guarded by Primary.mu.
	heldGen    uint64
	appliedGen uint64
}

// setConn swaps the link's connection under its lock.
func (l *standbyLink) setConn(c net.Conn) {
	l.connMu.Lock()
	l.conn = c
	l.connMu.Unlock()
}

// getConn reads the link's connection under its lock.
func (l *standbyLink) getConn() net.Conn {
	l.connMu.Lock()
	defer l.connMu.Unlock()
	return l.conn
}

// drop closes the link's connection; the next cycle reconnects.
func (l *standbyLink) drop() {
	l.connMu.Lock()
	if l.conn != nil {
		l.conn.Close()
		l.conn = nil
	}
	l.connMu.Unlock()
}

// Primary replicates captured checkpoints to the configured standbys:
// a full snapshot to establish each standby's base, then deltas while
// the standby keeps pace, with resume-from-generation on reconnect.
// Cycle is the synchronous unit (capture → diff → send → ack); Run
// drives it on a ticker. Cycle calls must be serialized (Run does);
// the observer methods (Gen, Lag, Fenced) are safe concurrently, and
// Close may sever connections from another goroutine.
type Primary struct {
	cfg   PrimaryConfig
	links []*standbyLink

	// last/crcs are the previous cycle's capture and entry fingerprint;
	// differ holds the diff's reusable indexes and deltaMsg the delta
	// message the cycle encodes — StateOverhead reserved bytes, then the
	// store envelope written in place — so a steady-state cycle
	// allocates for the frames that arrived, not for the state retained.
	// deltaMsg is kept only while it is at most deltaKeepBytes: the delta
	// of a cycle that followed a stall ships once and is let go.
	// All four are touched only by the Cycle goroutine.
	last     *store.Checkpoint
	crcs     []uint32
	differ   store.Differ
	deltaMsg []byte

	mu       sync.Mutex
	gen      uint64
	fenced   bool
	fencedBy uint64
	txMsgs   int
	closed   bool
	stats    PrimaryStats
}

// PrimaryStats is what a primary's cycles have cost: the operator's view
// of whether replication keeps to its interval and how often it falls
// back to a full snapshot. The JSON form is part of driftserve's
// /healthz replication block (the durations appear there in ms).
type PrimaryStats struct {
	// Cycles counts cycles that captured a generation; Overruns those
	// that took longer than the configured Interval.
	Cycles   uint64 `json:"cycles"`
	Overruns uint64 `json:"cycle_overruns"`
	// Fulls and Deltas count messages acknowledged by a standby, by kind;
	// FullBytes and DeltaBytes are their wire sizes summed.
	Fulls      uint64 `json:"fulls"`
	Deltas     uint64 `json:"deltas"`
	FullBytes  uint64 `json:"full_bytes"`
	DeltaBytes uint64 `json:"delta_bytes"`
	// LastCycle is the duration of the latest cycle, LastCapture the part
	// of it spent in Capture (which waits for the batch in flight — a
	// training stalls it), and LastBytes the wire bytes the cycle shipped
	// to all standbys together.
	LastCycle, LastCapture time.Duration `json:"-"`
	LastBytes              int           `json:"last_cycle_bytes"`
}

// deltaKeepBytes bounds the delta buffer a primary keeps from one cycle
// to the next, as the ingest router bounds its free list: a steady
// cycle's delta fits, and the one after a training stall held the pump
// ships and is let go instead of staying for the life of the process.
const deltaKeepBytes = 512 << 10

// NewPrimary builds a replication primary. It does not dial; the first
// Cycle does.
func NewPrimary(cfg PrimaryConfig) *Primary {
	if cfg.Interval <= 0 {
		cfg.Interval = time.Second
	}
	if cfg.Epoch == 0 {
		cfg.Epoch = 1
	}
	p := &Primary{cfg: cfg, deltaMsg: make([]byte, StateOverhead)}
	for _, a := range cfg.Addrs {
		p.links = append(p.links, &standbyLink{addr: a})
	}
	return p
}

// Epoch returns the fencing epoch this primary streams under.
func (p *Primary) Epoch() uint64 { return p.cfg.Epoch }

// Gen returns the last generation captured.
func (p *Primary) Gen() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.gen
}

// Stats returns the cycle accounting so far.
func (p *Primary) Stats() PrimaryStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stats
}

// Fenced reports whether a standby has fenced this primary.
func (p *Primary) Fenced() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.fenced
}

// Lag returns the generation gap to the slowest standby.
func (p *Primary) Lag() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return int(p.gen - p.minAppliedGen())
}

// minAppliedGen returns the slowest standby's acknowledged generation.
// The caller holds p.mu.
func (p *Primary) minAppliedGen() uint64 {
	min := p.gen
	for _, l := range p.links {
		if l.appliedGen < min {
			min = l.appliedGen
		}
	}
	return min
}

// logf logs through the configured sink.
func (p *Primary) logf(format string, args ...any) {
	if p.cfg.Logf != nil {
		p.cfg.Logf(format, args...)
	}
}

// Run drives Cycle on the configured interval until stop closes or the
// primary is fenced.
func (p *Primary) Run(stop <-chan struct{}) {
	t := time.NewTicker(p.cfg.Interval)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			if err := p.Cycle(); err != nil {
				if errors.Is(err, ErrFenced) {
					return
				}
				p.logf("replica: cycle: %v", err)
			}
		}
	}
}

// Cycle captures one generation and ships it to every standby: a delta
// when the standby holds the previous generation, a full snapshot
// otherwise (first contact, lagging standby, unchainable diff). Send
// failures drop the connection and retry once within the cycle — a
// torn write costs a reconnect, not a generation — and a standby that
// stays unreachable simply lags until a later cycle. It returns
// ErrFenced permanently once any standby reports a newer epoch.
func (p *Primary) Cycle() error {
	start := time.Now()
	p.mu.Lock()
	if p.fenced {
		p.mu.Unlock()
		return ErrFenced
	}
	if p.closed {
		p.mu.Unlock()
		return errors.New("replica: primary closed")
	}
	prevGen := p.gen
	p.mu.Unlock()

	cp := p.cfg.Capture()
	if cp == nil {
		return nil
	}
	captured := time.Since(start)
	cp.Epoch = p.cfg.Epoch
	cp.Gen = prevGen + 1

	// Diff against the previous cycle's capture. Model entries and frames
	// are shared by pointer across captures, so the diff re-encodes
	// neither: the delta is the frames that arrived since, one model blob
	// if a shard trained, and kilobytes of shard runtime. fullMsg is
	// encoded only when some standby needs it.
	var deltaMsg, fullMsg []byte
	var nextCRCs []uint32
	if p.last != nil {
		d, crcs, err := p.differ.Diff(p.last, p.crcs, cp)
		if err == nil {
			msg, err := store.AppendDelta(p.deltaMsg[:StateOverhead], d)
			if err != nil {
				return fmt.Errorf("replica: encode delta: %w", err)
			}
			p.deltaMsg, deltaMsg, nextCRCs = msg, msg, crcs
			if cap(msg) > deltaKeepBytes {
				p.deltaMsg = make([]byte, StateOverhead)
			}
		} else if !errors.Is(err, store.ErrDeltaBase) {
			return fmt.Errorf("replica: diff: %w", err)
		}
	}
	if nextCRCs == nil {
		// No base (first cycle) or unchainable: everyone gets a full.
		msg, crcs, err := store.AppendCheckpoint(make([]byte, StateOverhead), cp)
		if err != nil {
			return fmt.Errorf("replica: encode: %w", err)
		}
		fullMsg, nextCRCs = msg, crcs
	}

	p.last, p.crcs = cp, nextCRCs
	p.mu.Lock()
	p.gen = cp.Gen
	p.mu.Unlock()

	type shipped struct {
		full  bool
		bytes int
	}
	var firstErr error
	var sent []shipped
	for _, l := range p.links {
		full, n, err := p.ship(l, cp, prevGen, deltaMsg, &fullMsg)
		if err != nil {
			if errors.Is(err, ErrFenced) {
				return err
			}
			if firstErr == nil {
				firstErr = err
			}
			p.logf("replica: standby %s: %v", l.addr, err)
			continue
		}
		sent = append(sent, shipped{full, n})
	}

	took := time.Since(start)
	p.mu.Lock()
	st := &p.stats
	st.Cycles++
	st.LastCycle, st.LastCapture, st.LastBytes = took, captured, 0
	for _, s := range sent {
		st.LastBytes += s.bytes
		if s.full {
			st.Fulls++
			st.FullBytes += uint64(s.bytes)
		} else {
			st.Deltas++
			st.DeltaBytes += uint64(s.bytes)
		}
	}
	overrun := took > p.cfg.Interval
	if overrun {
		st.Overruns++
	}
	firstOverrun, bytes := overrun && st.Overruns == 1, st.LastBytes
	lag := int(p.gen - p.minAppliedGen())
	p.mu.Unlock()
	if firstOverrun {
		p.logf("replica: cycle for generation %d took %v (%v of it waiting for the capture), longer than the %v interval; %d bytes shipped; later overruns are counted, not logged",
			cp.Gen, took.Round(time.Millisecond), captured.Round(time.Millisecond), p.cfg.Interval, bytes)
	}
	p.cfg.Tracer.ObserveStage(telemetry.StageReplicate, took)
	for _, s := range sent {
		kind := "delta"
		if s.full {
			kind = "full"
		}
		p.cfg.Tracer.ReplicaDeltaSent(cp.Gen, cp.Epoch, kind, s.bytes, lag, took)
	}
	return firstErr
}

// ship sends generation cp to one standby, choosing delta versus full
// by what the standby holds, with one reconnect retry. Both messages
// arrive complete but for their headers, which carry the per-connection
// sequence number and are written in place per attempt; fullMsg is
// encoded on first need and kept for the other standbys. It reports
// whether a full was shipped and the message's wire size.
func (p *Primary) ship(l *standbyLink, cp *store.Checkpoint, prevGen uint64, deltaMsg []byte, fullMsg *[]byte) (bool, int, error) {
	var lastErr error
	for attempt := 0; attempt < 2; attempt++ {
		if l.getConn() == nil {
			if err := p.connect(l); err != nil {
				lastErr = err
				continue
			}
		}
		p.mu.Lock()
		held := l.heldGen
		p.mu.Unlock()
		st := State{Epoch: cp.Epoch, Seq: l.seq + 1, Gen: cp.Gen}
		msgType, msg := uint8(MsgFull), *fullMsg
		if deltaMsg != nil && held == prevGen && prevGen > 0 {
			msgType, msg, st.BaseGen = MsgDelta, deltaMsg, prevGen
		} else if msg == nil {
			var err error
			if msg, _, err = store.AppendCheckpoint(make([]byte, StateOverhead), cp); err != nil {
				return false, 0, fmt.Errorf("replica: encode: %w", err)
			}
			*fullMsg = msg
		}
		PutStateHeader(msg, msgType, st)
		if err := p.send(l, msg); err != nil {
			lastErr = err
			l.drop()
			continue
		}
		l.seq++
		ack, err := p.readAck(l)
		if err == nil && ack.Gen != cp.Gen {
			// The standby kept what it held and closed the stream; its
			// next Hello asks for a full.
			err = fmt.Errorf("replica: standby did not apply generation %d, holds %d", cp.Gen, ack.Gen)
		}
		if err != nil {
			lastErr = err
			if errors.Is(err, ErrFenced) {
				return false, 0, err
			}
			l.drop()
			continue
		}
		p.mu.Lock()
		l.heldGen = cp.Gen
		l.appliedGen = ack.Gen
		p.mu.Unlock()
		return msgType == MsgFull, len(msg), nil
	}
	return false, 0, lastErr
}

// connect dials a standby and consumes its Hello, adopting the
// standby's applied generation as the resume point. A Hello carrying a
// newer epoch fences the primary before anything is streamed.
func (p *Primary) connect(l *standbyLink) error {
	conn, err := net.DialTimeout("tcp", l.addr, dialTimeout)
	if err != nil {
		return err
	}
	_ = conn.SetReadDeadline(time.Now().Add(replyTimeout))
	msgType, payload, err := ReadMsg(conn)
	if err != nil {
		conn.Close()
		return fmt.Errorf("replica: hello: %w", err)
	}
	if msgType != MsgHello {
		conn.Close()
		return fmt.Errorf("replica: expected hello, got message type %d", msgType)
	}
	h, err := DecodeHello(payload)
	if err != nil {
		conn.Close()
		return fmt.Errorf("replica: hello: %w", err)
	}
	if h.Epoch > p.cfg.Epoch {
		conn.Close()
		p.fence(h.Epoch)
		return ErrFenced
	}
	l.setConn(conn)
	l.seq = 0
	p.mu.Lock()
	l.heldGen = h.Gen
	l.appliedGen = h.Gen
	p.mu.Unlock()
	p.logf("replica: connected to standby %s (epoch %d, resume gen %d)", l.addr, h.Epoch, h.Gen)
	return nil
}

// send writes one message through the fault seam.
func (p *Primary) send(l *standbyLink, wire []byte) error {
	conn := l.getConn()
	if conn == nil {
		return errors.New("replica: connection closed")
	}
	if p.cfg.TxFault != nil {
		p.mu.Lock()
		msg := p.txMsgs
		p.txMsgs++
		p.mu.Unlock()
		out, tear := p.cfg.TxFault(msg, wire)
		if tear {
			if len(out) > 0 {
				_, _ = conn.Write(out)
			}
			return errors.New("replica: injected torn write")
		}
		wire = out
	}
	_ = conn.SetWriteDeadline(time.Now().Add(replyTimeout))
	if _, err := conn.Write(wire); err != nil {
		return err
	}
	return nil
}

// readAck reads the standby's reply to one streamed generation:
// Applied advances the lag accounting, Fenced demotes this primary.
func (p *Primary) readAck(l *standbyLink) (Applied, error) {
	conn := l.getConn()
	if conn == nil {
		return Applied{}, errors.New("replica: connection closed")
	}
	_ = conn.SetReadDeadline(time.Now().Add(replyTimeout))
	msgType, payload, err := ReadMsg(conn)
	if err != nil {
		return Applied{}, err
	}
	switch msgType {
	case MsgApplied:
		return DecodeApplied(payload)
	case MsgFenced:
		f, err := DecodeFenced(payload)
		if err != nil {
			return Applied{}, err
		}
		p.fence(f.Epoch)
		return Applied{}, ErrFenced
	default:
		return Applied{}, fmt.Errorf("replica: expected applied, got message type %d", msgType)
	}
}

// fence records a terminal demotion and notifies the owner once.
func (p *Primary) fence(epoch uint64) {
	p.mu.Lock()
	first := !p.fenced
	p.fenced = true
	if epoch > p.fencedBy {
		p.fencedBy = epoch
	}
	p.mu.Unlock()
	if first {
		p.logf("replica: fenced by epoch %d, stopping replication", epoch)
		if p.cfg.OnFenced != nil {
			p.cfg.OnFenced(epoch)
		}
	}
}

// Close drops every standby connection. Cycle fails afterwards.
func (p *Primary) Close() {
	p.mu.Lock()
	p.closed = true
	p.mu.Unlock()
	for _, l := range p.links {
		l.drop()
	}
}
