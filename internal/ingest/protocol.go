// Package ingest is the network ingestion tier: it accepts frames from
// external tenants over a compact binary protocol (raw TCP, plus an
// HTTP POST fallback), routes them through per-tenant bounded queues
// with explicit backpressure, and feeds them into a dynamic
// ShardedMonitor fleet — the front door that turns the single-process
// monitor into a multi-tenant service (DESIGN.md §14).
//
// The wire format is length-prefixed and versioned. Every message is
//
//	magic   u32  "VDIF" (0x56444946)
//	version u8   1
//	type    u8   frame | ack | nack
//	len     u32  payload length in bytes
//	crc     u32  CRC-32 (IEEE) of the payload
//	payload len bytes
//
// all big-endian. The CRC covers the payload only; header damage is
// caught by the magic/version/length checks. A frame payload carries
// the tenant id, a per-tenant sequence number, the frame geometry and
// condition tag, and the pixels as float32 (the wire quantization — the
// monitor works on float64, so a frame that crossed the wire is the
// float32-rounded image of the original; determinism contracts compare
// against the quantized frame).
//
// Decoding never trusts a declared length: payloads are capped, dims
// are bounded, and every structural violation surfaces as a typed
// error (ErrBadMagic, ErrTruncated, ErrChecksum, ErrOversized,
// ErrMalformed, *VersionError) — never a panic, never an allocation
// sized by attacker-controlled bytes beyond the cap.
//
// The package is listed in determinism.CriticalPackages, so the whole
// of it (not just this file) is held to the deterministic-behavior
// invariants.
package ingest

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"

	"videodrift/internal/tensor"
	"videodrift/internal/vidsim"
)

// Magic is the wire magic number, "VDIF" big-endian.
const Magic uint32 = 0x56444946

// Version is the protocol version this package speaks.
const Version = 1

// HeaderSize is the fixed size of the wire header in bytes
// (faults.NetHeaderBytes mirrors it so injected corruption lands in
// the payload; a test pins the agreement).
const HeaderSize = 14

// Message types.
const (
	MsgFrame = 1 // client → server: one video frame
	MsgAck   = 2 // server → client: frame accepted (or duplicate)
	MsgNack  = 3 // server → client: frame rejected, with reason code
)

// Protocol limits. Violations decode as ErrOversized.
const (
	// MaxDim bounds frame width and height.
	MaxDim = 4096
	// MaxTenant bounds the tenant id length in bytes.
	MaxTenant = 64
	// MaxPayload bounds a declared payload length: the largest legal
	// frame (MaxDim² float32 pixels) plus the fixed fields.
	MaxPayload = 4*MaxDim*MaxDim + 1 + MaxTenant + 8 + 2 + 2 + 1 + 255 + 4
)

// Typed decode errors.
var (
	// ErrBadMagic reports a header that does not start with Magic — the
	// peer is not speaking this protocol (or the stream desynced).
	ErrBadMagic = errors.New("ingest: bad magic")
	// ErrTruncated reports a message or payload shorter than its
	// declared contents.
	ErrTruncated = errors.New("ingest: truncated message")
	// ErrChecksum reports a payload whose CRC does not match the header.
	ErrChecksum = errors.New("ingest: payload checksum mismatch")
	// ErrOversized reports a declared length beyond the protocol limits.
	ErrOversized = errors.New("ingest: oversized message")
	// ErrMalformed reports a structurally invalid payload (zero dims,
	// pixel count disagreeing with geometry, empty tenant id).
	ErrMalformed = errors.New("ingest: malformed payload")
)

// VersionError reports a protocol version this package does not speak.
type VersionError struct{ Got uint8 }

func (e *VersionError) Error() string {
	return fmt.Sprintf("ingest: protocol version %d (want %d)", e.Got, Version)
}

// FrameMsg is a decoded frame message: one video frame addressed by
// (tenant, sequence number). Seq is per-tenant, starts at 0 and
// increases by 1 per frame; the router uses it to detect duplicates
// (resends after a lost ack) and gaps.
//
//driftlint:wire encode=EncodeFrame decode=DecodeFrameMsg stream=ReadMsg
type FrameMsg struct {
	Tenant    string
	Seq       uint64
	W, H      int
	Condition string
	Pixels    []float32
}

// Ack is a decoded acknowledgment: frame Seq is accepted. Dup reports
// an idempotent accept — the frame had already been processed (a
// resend after a lost ack), so the sender should advance, not retry.
//
//driftlint:wire encode=EncodeAck,appendAck decode=DecodeAck stream=ReadMsg
type Ack struct {
	Seq uint64
	Dup bool
}

// Nack reason codes.
const (
	// NackMalformed: the message failed to decode; resending the same
	// bytes will fail again.
	NackMalformed = 1
	// NackQueueFull: the tenant's queue is full — backpressure. Retry
	// after RetryAfter.
	NackQueueFull = 2
	// NackTenantLimit: the fleet is at -max-tenants and this tenant is
	// unknown. Retry after RetryAfter (a slot may free up).
	NackTenantLimit = 3
	// NackBadSeq: the sequence number leaves a gap (frames would be
	// silently missing). The expected seq is in Reason.
	NackBadSeq = 4
	// NackInternal: the server could not process the frame.
	NackInternal = 5
)

// Nack is a decoded rejection for frame Seq. RetryAfterMillis is the
// server's backoff hint (0 means not retryable); Reason is a short
// human-readable diagnostic.
//
//driftlint:wire encode=EncodeNack decode=DecodeNack stream=ReadMsg
type Nack struct {
	Seq              uint64
	Code             uint8
	RetryAfterMillis uint32
	Reason           string
}

// sealMsg completes the message that starts at b[at]: the first
// HeaderSize bytes there are reserved, everything after them is the
// payload, and the header — magic, version, type, payload length, payload
// CRC — is written over the reservation. Encoders append the payload
// behind a reserved header and seal, so a message is built in one buffer.
func sealMsg(b []byte, at int, msgType uint8) []byte {
	hdr, payload := b[at:at+HeaderSize], b[at+HeaderSize:]
	binary.BigEndian.PutUint32(hdr[0:4], Magic)
	hdr[4], hdr[5] = Version, msgType
	binary.BigEndian.PutUint32(hdr[6:10], uint32(len(payload)))
	binary.BigEndian.PutUint32(hdr[10:14], crc32.ChecksumIEEE(payload))
	return b
}

// EncodeFrame encodes a frame message to wire bytes (header included).
func EncodeFrame(m FrameMsg) []byte {
	b := make([]byte, HeaderSize, HeaderSize+1+len(m.Tenant)+8+2+2+1+len(m.Condition)+4+4*len(m.Pixels))
	b = append(b, uint8(len(m.Tenant)))
	b = append(b, m.Tenant...)
	b = binary.BigEndian.AppendUint64(b, m.Seq)
	b = binary.BigEndian.AppendUint16(b, uint16(m.W))
	b = binary.BigEndian.AppendUint16(b, uint16(m.H))
	b = append(b, uint8(len(m.Condition)))
	b = append(b, m.Condition...)
	b = binary.BigEndian.AppendUint32(b, uint32(len(m.Pixels)))
	for _, p := range m.Pixels {
		b = binary.BigEndian.AppendUint32(b, math.Float32bits(p))
	}
	return sealMsg(b, 0, MsgFrame)
}

// ackSize is the wire size of an ack: header, seq, dup flag.
const ackSize = HeaderSize + 8 + 1

// appendAck appends an encoded ack to b — EncodeAck into a buffer the
// caller reuses (a connection answers every frame out of one).
func appendAck(b []byte, a Ack) []byte {
	var hdr [HeaderSize]byte
	at := len(b)
	b = append(b, hdr[:]...)
	b = binary.BigEndian.AppendUint64(b, a.Seq)
	b = append(b, 0)
	if a.Dup {
		b[len(b)-1] = 1
	}
	return sealMsg(b, at, MsgAck)
}

// EncodeAck encodes an ack to wire bytes.
func EncodeAck(a Ack) []byte {
	return appendAck(make([]byte, 0, ackSize), a)
}

// EncodeNack encodes a nack to wire bytes. Reasons beyond 65535 bytes
// are truncated.
func EncodeNack(n Nack) []byte {
	if len(n.Reason) > 65535 {
		n.Reason = n.Reason[:65535]
	}
	b := make([]byte, HeaderSize, HeaderSize+8+1+4+2+len(n.Reason))
	b = binary.BigEndian.AppendUint64(b, n.Seq)
	b = append(b, n.Code)
	b = binary.BigEndian.AppendUint32(b, n.RetryAfterMillis)
	b = binary.BigEndian.AppendUint16(b, uint16(len(n.Reason)))
	b = append(b, n.Reason...)
	return sealMsg(b, 0, MsgNack)
}

// parseHeader validates a wire header — the one place a message's magic,
// version and declared payload length are checked — and returns its
// fields. h holds at least HeaderSize bytes.
func parseHeader(h []byte) (msgType uint8, n int, crc uint32, err error) {
	h = h[:HeaderSize]
	if binary.BigEndian.Uint32(h[0:4]) != Magic {
		return 0, 0, 0, ErrBadMagic
	}
	if h[4] != Version {
		return 0, 0, 0, &VersionError{Got: h[4]}
	}
	declared := binary.BigEndian.Uint32(h[6:10])
	if declared > MaxPayload {
		return 0, 0, 0, fmt.Errorf("%w: declared payload %d > %d", ErrOversized, declared, MaxPayload)
	}
	return h[5], int(declared), binary.BigEndian.Uint32(h[10:14]), nil
}

// checkPayload is the payload half of a message's integrity check. A
// mismatch still reports the type: the message was consumed whole, so the
// stream stays aligned and the receiver may answer it.
func checkPayload(msgType uint8, payload []byte, crc uint32) (uint8, []byte, error) {
	if crc32.ChecksumIEEE(payload) != crc {
		return msgType, nil, ErrChecksum
	}
	return msgType, payload, nil
}

// connBufSize is a connection's standing read buffer: a 32×32 frame is
// 4.1 KB on the wire, so a few fit. A message that does not fit is read
// into a buffer of its own, so a connection's resident memory does not
// follow the largest frame it ever carried.
const connBufSize = 16 << 10

// msgReader reads length-prefixed messages off a stream through one
// buffer it owns: a message that arrived whole costs one Read, header and
// payload together, and whatever else that Read returned — the next
// message, or half of it — is served from the buffer before the stream is
// touched again. Over a buffer of exactly HeaderSize there is no room to
// read ahead, so it consumes the messages it returns and not a byte more
// (ReadMsg). It knows nothing of message types: internal/replica frames
// the same header and could lift it unchanged.
type msgReader struct {
	r      io.Reader
	buf    []byte
	rd, wr int // buf[rd:wr] is read off the stream and not yet consumed
}

// next returns the next message: header validation, then exactly the
// declared payload, then the CRC check. The payload aliases the reader's
// buffer and is valid until the following call, unless the message is
// larger than the buffer, when it is the caller's own. io.EOF means the
// stream closed between messages. On a header-level error the stream
// position is undefined (drop the connection); a CRC failure leaves the
// stream aligned on the next message.
func (m *msgReader) next() (msgType uint8, payload []byte, err error) {
	if err := m.fill(HeaderSize); err != nil {
		if err == io.EOF && m.rd < m.wr {
			return 0, nil, ErrTruncated
		}
		return 0, nil, err
	}
	msgType, n, crc, err := parseHeader(m.buf[m.rd:])
	if err != nil {
		return 0, nil, err
	}
	m.rd += HeaderSize
	if HeaderSize+n > len(m.buf) {
		payload = make([]byte, n)
		have := copy(payload, m.buf[m.rd:m.wr])
		m.rd, m.wr = 0, 0
		if _, err := io.ReadFull(m.r, payload[have:]); err != nil {
			return 0, nil, ErrTruncated
		}
		return checkPayload(msgType, payload, crc)
	}
	if err := m.fill(n); err != nil {
		return 0, nil, ErrTruncated
	}
	payload = m.buf[m.rd : m.rd+n : m.rd+n]
	m.rd += n
	return checkPayload(msgType, payload, crc)
}

// fill reads until need unconsumed bytes are buffered (need is at most
// the buffer's size), moving a partial message to the front when the
// tail has no room for the rest of it. The error of a Read that also
// completed the need is left for the next Read to repeat.
func (m *msgReader) fill(need int) error {
	if m.rd == m.wr {
		m.rd, m.wr = 0, 0
	} else if m.rd+need > len(m.buf) {
		m.wr = copy(m.buf, m.buf[m.rd:m.wr])
		m.rd = 0
	}
	for idle := 0; m.wr-m.rd < need; {
		n, err := m.r.Read(m.buf[m.wr:])
		m.wr += n
		if err != nil && m.wr-m.rd < need {
			return err
		}
		if n > 0 {
			idle = 0
		} else if idle++; idle == 100 {
			return io.ErrNoProgress
		}
	}
	return nil
}

// ReadMsg reads one length-prefixed message off the stream: header
// validation (magic, version, payload cap), then exactly the declared
// payload, then the CRC check — and not a byte beyond it, so the stream
// may be handed to another reader afterwards. The payload is the
// caller's. On a header-level error the stream position is undefined (the
// connection should be dropped); a payload CRC failure leaves the stream
// aligned on the next message.
func ReadMsg(r io.Reader) (msgType uint8, payload []byte, err error) {
	var hdr [HeaderSize]byte
	m := msgReader{r: r, buf: hdr[:]}
	return m.next()
}

// DecodeMsg decodes one message from a complete wire buffer (header +
// payload), the io-free sibling of ReadMsg. The payload aliases b.
func DecodeMsg(b []byte) (msgType uint8, payload []byte, err error) {
	if len(b) < HeaderSize {
		return 0, nil, ErrTruncated
	}
	msgType, n, crc, err := parseHeader(b)
	if err != nil {
		return 0, nil, err
	}
	if len(b)-HeaderSize < n {
		return 0, nil, ErrTruncated
	}
	return checkPayload(msgType, b[HeaderSize:HeaderSize+n], crc)
}

// frameFields is a frame payload taken apart, every length checked. The
// byte fields alias the payload; pix is the 4·W·H bytes of big-endian
// float32 pixels.
type frameFields struct {
	tenant, cond []byte
	seq          uint64
	w, h         int
	pix          []byte
}

// parseFrame is the frame parser — the protocol's attack surface. Every
// length is checked before use, so arbitrary input yields a typed error,
// never a panic, and nothing is allocated: the callers size their pixel
// slice by a pixel count that the payload's own length has confirmed.
// Fuzzed by FuzzDecodeFrameMsg through both of them.
func parseFrame(payload []byte) (f frameFields, err error) {
	if len(payload) < 1 {
		return f, ErrTruncated
	}
	tn := int(payload[0])
	rest := payload[1:]
	if tn == 0 {
		return f, fmt.Errorf("%w: empty tenant id", ErrMalformed)
	}
	if tn > MaxTenant {
		return f, fmt.Errorf("%w: tenant id %d bytes > %d", ErrOversized, tn, MaxTenant)
	}
	if len(rest) < tn+8+2+2+1 {
		return f, ErrTruncated
	}
	f.tenant = rest[:tn]
	rest = rest[tn:]
	f.seq = binary.BigEndian.Uint64(rest[0:8])
	f.w = int(binary.BigEndian.Uint16(rest[8:10]))
	f.h = int(binary.BigEndian.Uint16(rest[10:12]))
	cn := int(rest[12])
	rest = rest[13:]
	if f.w < 1 || f.h < 1 {
		return frameFields{}, fmt.Errorf("%w: %dx%d frame", ErrMalformed, f.w, f.h)
	}
	if f.w > MaxDim || f.h > MaxDim {
		return frameFields{}, fmt.Errorf("%w: %dx%d frame > %dx%d", ErrOversized, f.w, f.h, MaxDim, MaxDim)
	}
	if len(rest) < cn+4 {
		return frameFields{}, ErrTruncated
	}
	f.cond = rest[:cn]
	rest = rest[cn:]
	npix := int(binary.BigEndian.Uint32(rest[0:4]))
	rest = rest[4:]
	if npix != f.w*f.h {
		return frameFields{}, fmt.Errorf("%w: %d pixels for a %dx%d frame", ErrMalformed, npix, f.w, f.h)
	}
	if len(rest) != 4*npix {
		return frameFields{}, ErrTruncated
	}
	f.pix = rest
	return f, nil
}

// pixelsOf decodes big-endian float32 wire pixels as float32 (a wire
// message's own precision) or widened to float64 (the monitor's).
func pixelsOf[P float32 | float64](pix []byte) []P {
	out := make([]P, len(pix)/4)
	for i := range out {
		out[i] = P(math.Float32frombits(binary.BigEndian.Uint32(pix[4*i : 4*i+4])))
	}
	return out
}

// DecodeFrameMsg decodes a frame payload (the bytes after the header)
// into a wire message; the payload is not retained.
func DecodeFrameMsg(payload []byte) (FrameMsg, error) {
	f, err := parseFrame(payload)
	if err != nil {
		return FrameMsg{}, err
	}
	return FrameMsg{
		Tenant:    string(f.tenant),
		Seq:       f.seq,
		W:         f.w,
		H:         f.h,
		Condition: string(f.cond),
		Pixels:    pixelsOf[float32](f.pix),
	}, nil
}

// frameDecoder decodes frame payloads straight into the frame the
// pipeline keeps — FrameFromMsg(DecodeFrameMsg(payload)) without the
// float32 slice in between: the pixels widen out of the payload into the
// one slice the frame retains (frames are immutable once queued, so that
// one is never pooled). A connection's frames repeat their tenant and,
// mostly, their condition, so both strings are reused while their bytes
// repeat. The zero value is ready; not safe for concurrent use.
type frameDecoder struct{ tenant, cond string }

func (d *frameDecoder) decode(payload []byte) (tenant string, f vidsim.Frame, err error) {
	p, err := parseFrame(payload)
	if err != nil {
		return "", vidsim.Frame{}, err
	}
	if d.tenant != string(p.tenant) {
		d.tenant = string(p.tenant)
	}
	if d.cond != string(p.cond) {
		d.cond = string(p.cond)
	}
	return d.tenant, vidsim.Frame{
		Index:     int(p.seq),
		W:         p.w,
		H:         p.h,
		Pixels:    pixelsOf[float64](p.pix),
		Condition: d.cond,
	}, nil
}

// DecodeAck decodes an ack payload.
func DecodeAck(payload []byte) (Ack, error) {
	if len(payload) != 9 {
		return Ack{}, ErrTruncated
	}
	return Ack{Seq: binary.BigEndian.Uint64(payload[0:8]), Dup: payload[8] != 0}, nil
}

// DecodeNack decodes a nack payload.
func DecodeNack(payload []byte) (Nack, error) {
	if len(payload) < 8+1+4+2 {
		return Nack{}, ErrTruncated
	}
	n := Nack{
		Seq:              binary.BigEndian.Uint64(payload[0:8]),
		Code:             payload[8],
		RetryAfterMillis: binary.BigEndian.Uint32(payload[9:13]),
	}
	rn := int(binary.BigEndian.Uint16(payload[13:15]))
	if len(payload) != 15+rn {
		return Nack{}, ErrTruncated
	}
	n.Reason = string(payload[15:])
	return n, nil
}

// FrameFromMsg converts a decoded frame message into the monitor's
// frame type. Index carries the wire sequence number; pixels widen
// float32 → float64, so this is the exact frame an in-process run must
// be fed to reproduce a wire run bit-identically.
func FrameFromMsg(m FrameMsg) vidsim.Frame {
	px := make(tensor.Vector, len(m.Pixels))
	for i, p := range m.Pixels {
		px[i] = float64(p)
	}
	return vidsim.Frame{
		Index:     int(m.Seq),
		W:         m.W,
		H:         m.H,
		Pixels:    px,
		Condition: m.Condition,
	}
}

// MsgFromFrame builds the wire message for a frame: pixels narrow
// float64 → float32 (the wire quantization), ground truth does not
// travel — annotation is the server's job, as in the paper's setting.
func MsgFromFrame(tenant string, seq uint64, f vidsim.Frame) FrameMsg {
	px := make([]float32, len(f.Pixels))
	for i, p := range f.Pixels {
		px[i] = float32(p)
	}
	return FrameMsg{
		Tenant:    tenant,
		Seq:       seq,
		W:         f.W,
		H:         f.H,
		Condition: f.Condition,
		Pixels:    px,
	}
}
