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
// The wire format mirrors internal/ingest: every message is
//
//	magic   u32  "VDRP" (0x56445250)
//	version u8   1
//	type    u8   hello | full | delta | applied | fenced
//	len     u32  payload length in bytes
//	crc     u32  CRC-32 (IEEE) of the payload
//	payload len bytes
//
// all big-endian. Decoding never trusts a declared length: payloads
// are capped and every structural violation surfaces as a typed error
// (ErrBadMagic, ErrTruncated, ErrChecksum, ErrOversized, *VersionError)
// — never a panic, never an allocation sized by attacker-controlled
// bytes beyond the cap.
package replica

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// Magic is the wire magic number, "VDRP" big-endian.
const Magic uint32 = 0x56445250

// Version is the protocol version this package speaks.
const Version = 1

// HeaderSize is the fixed size of the wire header in bytes.
const HeaderSize = 14

// Message types.
const (
	MsgHello   = 1 // standby → primary: greeting with epoch + resume generation
	MsgFull    = 2 // primary → standby: one full checkpoint envelope
	MsgDelta   = 3 // primary → standby: one delta checkpoint envelope
	MsgApplied = 4 // standby → primary: generation applied (lag accounting)
	MsgFenced  = 5 // standby → primary: stream rejected, epoch is stale
)

// MaxPayload bounds a declared payload length: a full checkpoint of a
// large model fleet, with headroom.
const MaxPayload = 1 << 28

// Typed decode errors.
var (
	// ErrBadMagic reports a header that does not start with Magic — the
	// peer is not speaking this protocol (or the stream desynced).
	ErrBadMagic = errors.New("replica: bad magic")
	// ErrTruncated reports a message or payload shorter than its
	// declared contents.
	ErrTruncated = errors.New("replica: truncated message")
	// ErrChecksum reports a payload whose CRC does not match the header.
	ErrChecksum = errors.New("replica: payload checksum mismatch")
	// ErrOversized reports a declared length beyond the protocol limits.
	ErrOversized = errors.New("replica: oversized message")
)

// VersionError reports a protocol version this package does not speak.
type VersionError struct{ Got uint8 }

func (e *VersionError) Error() string {
	return fmt.Sprintf("replica: protocol version %d (want %d)", e.Got, Version)
}

// Hello is the standby's greeting on every (re)connect: the highest
// fencing epoch it has seen and the last generation it applied, which
// is the primary's resume point — Gen 0 asks for a full snapshot.
//
//driftlint:wire encode=EncodeHello decode=DecodeHello stream=ReadMsg
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
//
//driftlint:wire encode=EncodeState,PutStateHeader decode=DecodeState stream=ReadMsg
type State struct {
	Epoch   uint64
	Seq     uint64
	Gen     uint64
	BaseGen uint64
	Payload []byte
}

// Applied acknowledges one applied generation.
//
//driftlint:wire encode=EncodeApplied decode=DecodeApplied stream=ReadMsg
type Applied struct {
	Gen uint64
}

// Fenced rejects a stream whose epoch is stale: the sender reports the
// epoch it is fenced behind. The receiving primary must stop
// replicating — a newer primary exists.
//
//driftlint:wire encode=EncodeFenced decode=DecodeFenced stream=ReadMsg
type Fenced struct {
	Epoch uint64
}

// appendHeader appends the 14-byte header for a payload.
func appendHeader(b []byte, msgType uint8, payload []byte) []byte {
	b = binary.BigEndian.AppendUint32(b, Magic)
	b = append(b, Version, msgType)
	b = binary.BigEndian.AppendUint32(b, uint32(len(payload)))
	b = binary.BigEndian.AppendUint32(b, crc32.ChecksumIEEE(payload))
	return b
}

// EncodeHello encodes a hello to wire bytes (header included).
func EncodeHello(h Hello) []byte {
	payload := make([]byte, 0, 16)
	payload = binary.BigEndian.AppendUint64(payload, h.Epoch)
	payload = binary.BigEndian.AppendUint64(payload, h.Gen)
	return append(appendHeader(make([]byte, 0, HeaderSize+len(payload)), MsgHello, payload), payload...)
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
	wire := make([]byte, StateOverhead, StateOverhead+len(st.Payload))
	wire = append(wire, st.Payload...)
	PutStateHeader(wire, msgType, st)
	return wire
}

// PutStateHeader completes a state message in place: wire already
// holds the store envelope at wire[StateOverhead:] (st.Payload is not
// read) and gets its wire header, state fields and payload CRC written
// in front. It is how a primary sends one encoded generation to several
// standbys, or retries it, without re-assembling the message: only the
// sequence number differs.
func PutStateHeader(wire []byte, msgType uint8, st State) {
	payload := wire[HeaderSize:]
	binary.BigEndian.PutUint64(payload[0:8], st.Epoch)
	binary.BigEndian.PutUint64(payload[8:16], st.Seq)
	binary.BigEndian.PutUint64(payload[16:24], st.Gen)
	binary.BigEndian.PutUint64(payload[24:32], st.BaseGen)
	binary.BigEndian.PutUint32(payload[32:36], uint32(len(payload)-stateFields))
	appendHeader(wire[:0], msgType, payload)
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
	payload := binary.BigEndian.AppendUint64(make([]byte, 0, 8), a.Gen)
	return append(appendHeader(make([]byte, 0, HeaderSize+len(payload)), MsgApplied, payload), payload...)
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
	payload := binary.BigEndian.AppendUint64(make([]byte, 0, 8), f.Epoch)
	return append(appendHeader(make([]byte, 0, HeaderSize+len(payload)), MsgFenced, payload), payload...)
}

// DecodeFenced decodes a fencing-rejection payload.
func DecodeFenced(payload []byte) (Fenced, error) {
	if len(payload) != 8 {
		return Fenced{}, ErrTruncated
	}
	return Fenced{Epoch: binary.BigEndian.Uint64(payload)}, nil
}

// ReadMsg reads one length-prefixed message off the stream: header
// validation (magic, version, payload cap), then exactly the declared
// payload, then the CRC check. On a header-level error the stream
// position is undefined and the connection should be dropped — the
// reconnecting peer resumes from its Hello generation, which is what
// makes a torn delta stream cost a round trip, not state.
func ReadMsg(r io.Reader) (msgType uint8, payload []byte, err error) {
	var hdr [HeaderSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if errors.Is(err, io.ErrUnexpectedEOF) {
			return 0, nil, ErrTruncated
		}
		return 0, nil, err // io.EOF between messages: clean close
	}
	if binary.BigEndian.Uint32(hdr[0:4]) != Magic {
		return 0, nil, ErrBadMagic
	}
	if hdr[4] != Version {
		return 0, nil, &VersionError{Got: hdr[4]}
	}
	msgType = hdr[5]
	n := binary.BigEndian.Uint32(hdr[6:10])
	if n > MaxPayload {
		return 0, nil, fmt.Errorf("%w: declared payload %d > %d", ErrOversized, n, MaxPayload)
	}
	payload = make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return 0, nil, ErrTruncated
	}
	if crc32.ChecksumIEEE(payload) != binary.BigEndian.Uint32(hdr[10:14]) {
		return msgType, nil, ErrChecksum
	}
	return msgType, payload, nil
}

// DecodeMsg decodes one message from a complete wire buffer (header +
// payload), the io-free sibling of ReadMsg.
func DecodeMsg(b []byte) (msgType uint8, payload []byte, err error) {
	if len(b) < HeaderSize {
		return 0, nil, ErrTruncated
	}
	return ReadMsg(bytes.NewReader(b))
}
