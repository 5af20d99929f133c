// Package replica streams checkpoint state from a primary monitor to
// one or more hot standbys over a compact binary protocol, so a
// primary kill promotes a warm in-memory fleet instead of forcing a
// cold disk restore (DESIGN.md §16). The primary dials each standby,
// ships one full snapshot to establish a base generation, then ships
// delta checkpoints (internal/store.Delta — kilobytes of runtime state
// against megabytes of model weights) every replication cycle. A
// reconnecting standby greets with its last applied generation and the
// primary resumes from there: a delta when the standby holds the
// previous generation, a fresh full otherwise.
//
// Split brain is prevented by monotonic fencing epochs. Every streamed
// generation carries the primary's epoch; a promoted standby bumps its
// epoch past everything it has seen and answers any staler stream with
// a Fenced message, which the old primary treats as a terminal
// demotion.
//
// Every message travels in internal/wire's envelope under the "VDRP"
// format. Connections read one message at a time into a payload of the
// caller's own: the standby keeps a generation's bytes.
package replica

import (
	"encoding/binary"
	"fmt"
	"io"

	"videodrift/internal/wire"
)

// Magic is the wire magic number, "VDRP" big-endian.
const Magic uint32 = 0x56445250

// Version is the protocol version this package speaks. A peer that
// speaks another is refused with a *VersionError.
const Version = 3

// HeaderSize is the fixed size of the wire header in bytes.
const HeaderSize = wire.HeaderSize

// Message types.
const (
	MsgHello   = 1 // standby → primary: greeting with epoch + resume generation
	MsgFull    = 2 // primary → standby: one full checkpoint envelope (the delta from nothing)
	MsgDelta   = 3 // primary → standby: one delta checkpoint envelope
	MsgApplied = 4 // standby → primary: generation applied (lag accounting)
	MsgFenced  = 5 // standby → primary: stream rejected, epoch is stale
)

// MaxPayload bounds a declared payload length: a full checkpoint of a
// large model fleet, with headroom.
const MaxPayload = 1 << 28

// vdrp is this protocol's envelope.
var vdrp = wire.Format{Magic: Magic, Version: Version, MaxPayload: MaxPayload}

// The framing errors are the wire package's under either name.
var (
	ErrBadMagic  = wire.ErrBadMagic
	ErrTruncated = wire.ErrTruncated
	ErrChecksum  = wire.ErrChecksum
	ErrOversized = wire.ErrOversized
)

// VersionError reports a protocol version this package does not speak.
type VersionError = wire.VersionError

// Hello is the standby's greeting on every (re)connect: the highest
// fencing epoch it has seen and the last generation it applied, which
// is the primary's resume point — Gen 0 asks for a full snapshot.
type Hello struct {
	Epoch uint64
	Gen   uint64
}

// State is one streamed checkpoint generation (MsgFull or MsgDelta).
// Payload carries the store envelope bytes exactly as encoded by the
// primary — the standby persists and fingerprints those bytes, never a
// re-encode, so the CRC chain later deltas verify stays intact. Seq is
// the per-connection message sequence number (starts at 1); BaseGen is
// the generation a delta applies on (0 for fulls).
type State struct {
	Epoch   uint64
	Seq     uint64
	Gen     uint64
	BaseGen uint64
	Payload []byte
}

// Applied acknowledges one applied generation.
type Applied struct {
	Gen uint64
}

// Fenced rejects a stream whose epoch is stale: the sender reports the
// epoch it is fenced behind. The receiving primary must stop
// replicating — a newer primary exists.
type Fenced struct {
	Epoch uint64
}

// sealU64s seals a message whose payload is a few big-endian uint64s:
// hello, applied and fenced.
func sealU64s(msgType uint8, vs ...uint64) []byte {
	b := make([]byte, HeaderSize, HeaderSize+8*len(vs))
	for _, v := range vs {
		b = binary.BigEndian.AppendUint64(b, v)
	}
	return vdrp.Seal(b, 0, msgType)
}

// EncodeHello encodes a hello to wire bytes (header included).
func EncodeHello(h Hello) []byte {
	return sealU64s(MsgHello, h.Epoch, h.Gen)
}

// DecodeHello decodes a hello payload.
func DecodeHello(payload []byte) (Hello, error) {
	if len(payload) != 16 {
		return Hello{}, ErrTruncated
	}
	return Hello{
		Epoch: binary.BigEndian.Uint64(payload[0:8]),
		Gen:   binary.BigEndian.Uint64(payload[8:16]),
	}, nil
}

// StateOverhead is how many bytes of a state message precede the store
// envelope: the wire header and the fixed state fields.
const StateOverhead = HeaderSize + stateFields

// stateFields is the size of the fixed fields in front of the envelope
// in a state payload: epoch, seq, gen, base gen, envelope length.
const stateFields = 4*8 + 4

// EncodeState encodes a streamed generation to wire bytes under the
// given message type (MsgFull or MsgDelta).
func EncodeState(msgType uint8, st State) []byte {
	msg := make([]byte, StateOverhead, StateOverhead+len(st.Payload))
	msg = append(msg, st.Payload...)
	PutStateHeader(msg, msgType, st)
	return msg
}

// PutStateHeader completes a state message in place: msg already
// holds the store envelope at msg[StateOverhead:] (st.Payload is not
// read) and gets its wire header, state fields and payload CRC written
// in front. It is how a primary sends one encoded generation to several
// standbys, or retries it, without re-assembling the message: only the
// sequence number differs.
func PutStateHeader(msg []byte, msgType uint8, st State) {
	payload := msg[HeaderSize:]
	binary.BigEndian.PutUint64(payload[0:8], st.Epoch)
	binary.BigEndian.PutUint64(payload[8:16], st.Seq)
	binary.BigEndian.PutUint64(payload[16:24], st.Gen)
	binary.BigEndian.PutUint64(payload[24:32], st.BaseGen)
	binary.BigEndian.PutUint32(payload[32:36], uint32(len(payload)-stateFields))
	vdrp.Seal(msg, 0, msgType)
}

// DecodeState decodes a streamed-generation payload. Every length is
// checked before use, so arbitrary input yields a typed error, never a
// panic or an unbounded allocation. Fuzzed by FuzzReadStream.
func DecodeState(payload []byte) (State, error) {
	if len(payload) < stateFields {
		return State{}, ErrTruncated
	}
	st := State{
		Epoch:   binary.BigEndian.Uint64(payload[0:8]),
		Seq:     binary.BigEndian.Uint64(payload[8:16]),
		Gen:     binary.BigEndian.Uint64(payload[16:24]),
		BaseGen: binary.BigEndian.Uint64(payload[24:32]),
	}
	n := int(binary.BigEndian.Uint32(payload[32:36]))
	if n != len(payload)-stateFields {
		return State{}, fmt.Errorf("%w: declared %d envelope bytes, payload carries %d", ErrTruncated, n, len(payload)-stateFields)
	}
	st.Payload = payload[stateFields:]
	return st, nil
}

// EncodeApplied encodes an apply acknowledgment to wire bytes.
func EncodeApplied(a Applied) []byte {
	return sealU64s(MsgApplied, a.Gen)
}

// DecodeApplied decodes an apply-acknowledgment payload.
func DecodeApplied(payload []byte) (Applied, error) {
	if len(payload) != 8 {
		return Applied{}, ErrTruncated
	}
	return Applied{Gen: binary.BigEndian.Uint64(payload)}, nil
}

// EncodeFenced encodes a fencing rejection to wire bytes.
func EncodeFenced(f Fenced) []byte {
	return sealU64s(MsgFenced, f.Epoch)
}

// DecodeFenced decodes a fencing-rejection payload.
func DecodeFenced(payload []byte) (Fenced, error) {
	if len(payload) != 8 {
		return Fenced{}, ErrTruncated
	}
	return Fenced{Epoch: binary.BigEndian.Uint64(payload)}, nil
}

// ReadMsg reads one message off the stream (wire.Format.ReadMsg); the
// payload is the caller's to keep. After a header-level error the
// connection is dropped: the reconnecting peer resumes from its Hello
// generation, so a torn delta stream costs a round trip, not state.
func ReadMsg(r io.Reader) (msgType uint8, payload []byte, err error) {
	return vdrp.ReadMsg(r)
}

// DecodeMsg is ReadMsg over a complete buffer; the payload aliases b.
func DecodeMsg(b []byte) (msgType uint8, payload []byte, err error) {
	return vdrp.DecodeMsg(b)
}
