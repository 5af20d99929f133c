// Package ingest is the network ingestion tier: it accepts frames from
// external tenants over a compact binary protocol on TCP, routes them
// through per-tenant bounded queues — a full queue holds its sender
// back — and feeds them into a dynamic
// ShardedMonitor fleet — the front door that turns the single-process
// monitor into a multi-tenant service (DESIGN.md §14).
//
// Every message travels in internal/wire's envelope (header, CRC, typed
// framing errors, the connection reader) under the "VDIF" format. A
// frame payload carries the tenant id, a per-tenant sequence number, the
// frame geometry, and the pixels as float32 (the wire
// quantization — the monitor works on float64, so a frame that crossed
// the wire is the float32-rounded image of the original; determinism
// contracts compare against the quantized frame). Dims and lengths are
// bounded, and a structural violation is a typed error (the wire
// package's, or ErrMalformed) — never a panic, never an allocation sized
// by attacker-controlled bytes.
//
// The package is listed in determinism.CriticalPackages, so the whole
// of it (not just this file) is held to the deterministic-behavior
// invariants.
package ingest

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"videodrift/internal/tensor"
	"videodrift/internal/vidsim"
	"videodrift/internal/wire"
)

// Magic is the wire magic number, "VDIF" big-endian.
const Magic uint32 = 0x56444946

// Version is the protocol version this package speaks. A peer that
// speaks another is refused with a *VersionError.
const Version = 3

// HeaderSize is the fixed size of the wire header in bytes.
const HeaderSize = wire.HeaderSize

// Message types.
const (
	MsgFrame = 1 // client → server: one video frame
	MsgAck   = 2 // server → client: a Sync's answer
	MsgNack  = 3 // server → client: frame rejected, with reason code
	MsgSync  = 4 // client → server: where does the tenant's stream stand?
)

// Protocol limits. Violations decode as ErrOversized.
const (
	// MaxDim bounds frame width and height.
	MaxDim = 4096
	// MaxTenant bounds the tenant id length in bytes.
	MaxTenant = 64
	// MaxPayload bounds a declared payload length: the largest legal
	// frame (MaxDim² float32 pixels) plus the fixed fields.
	MaxPayload = 4*MaxDim*MaxDim + 1 + MaxTenant + 8 + 2 + 2 + 4
)

// vdif is this protocol's envelope.
var vdif = wire.Format{Magic: Magic, Version: Version, MaxPayload: MaxPayload}

// The framing errors are the wire package's under either name.
var (
	ErrBadMagic  = wire.ErrBadMagic
	ErrTruncated = wire.ErrTruncated
	ErrChecksum  = wire.ErrChecksum
	ErrOversized = wire.ErrOversized
	// ErrMalformed reports a structurally invalid payload (zero dims,
	// pixel count disagreeing with geometry, empty tenant id).
	ErrMalformed = errors.New("ingest: malformed payload")
)

// VersionError reports a protocol version this package does not speak.
type VersionError = wire.VersionError

// FrameMsg is a decoded frame message: one video frame addressed by
// (tenant, sequence number). Seq is per-tenant, starts at 0 and
// increases by 1 per frame; the router uses it to detect duplicates
// (resends after a lost ack) and gaps.
type FrameMsg struct {
	Tenant string
	Seq    uint64
	W, H   int
	Pixels []float32
}

// Ack is a decoded acknowledgment, a Sync's answer: every frame of the
// tenant's stream below Seq is admitted.
type Ack struct {
	Seq uint64
}

// Nack reason codes.
const (
	// NackMalformed: the message failed to decode; resending the same
	// bytes will fail again.
	NackMalformed = 1
	// Code 2 is unassigned: a full queue is not rejected, it holds the
	// sender back.

	// NackTenantLimit: the fleet is at -max-tenants and this tenant is
	// unknown. The client retries after DefaultRetryAfter (a slot may
	// free up).
	NackTenantLimit = 3
	// NackBadSeq: the sequence number leaves a gap (frames would be
	// silently missing). The expected seq is in Reason.
	NackBadSeq = 4
	// NackInternal: the server could not process the frame.
	NackInternal = 5
)

// Nack is a decoded rejection for frame Seq. Reason is a short
// human-readable diagnostic.
type Nack struct {
	Seq    uint64
	Code   uint8
	Reason string
}

// Sync asks where a tenant's stream stands: a client opens every
// connection with one and writes one behind the frame that asks for its
// window's confirmation. Seq is the first frame the client has not had
// confirmed. The answer is an Ack whose Seq is the tenant's next expected
// sequence number — every frame below it is admitted, since the router
// admits strictly in order — or, for a tenant the server does not know,
// 0. Under Config.ResumeStreams the Sync of a tenant the server does not
// know attaches it at Seq, as its first frame would, and the answer is
// Seq; otherwise a Sync attaches nothing and moves no counter. The
// server answers a frame only when it rejects it.
type Sync struct {
	Tenant string
	Seq    uint64
}

// EncodeFrame encodes a frame message to wire bytes (header included).
func EncodeFrame(m FrameMsg) []byte {
	b := make([]byte, 0, frameSize(len(m.Tenant), len(m.Pixels)))
	return appendFrame(b, m.Tenant, m.Seq, m.W, m.H, m.Pixels)
}

// frameSize is the wire size of a frame message.
func frameSize(tenant, pixels int) int {
	return HeaderSize + 1 + tenant + 8 + 2 + 2 + 4 + 4*pixels
}

// appendFrame appends an encoded frame message to b — EncodeFrame over
// pixels in either precision, narrowed to float32 on the way (a float32
// pixel is itself), so a client seals a vidsim frame straight into a
// buffer it reuses with no float32 slice in between.
func appendFrame[P float32 | float64](b []byte, tenant string, seq uint64, w, h int, pixels []P) []byte {
	var hdr [HeaderSize]byte
	at := len(b)
	b = append(b, hdr[:]...)
	b = append(b, uint8(len(tenant)))
	b = append(b, tenant...)
	b = binary.BigEndian.AppendUint64(b, seq)
	b = binary.BigEndian.AppendUint16(b, uint16(w))
	b = binary.BigEndian.AppendUint16(b, uint16(h))
	b = binary.BigEndian.AppendUint32(b, uint32(len(pixels)))
	for _, p := range pixels {
		b = binary.BigEndian.AppendUint32(b, math.Float32bits(float32(p)))
	}
	return vdif.Seal(b, at, MsgFrame)
}

// appendSync appends an encoded sync to b.
func appendSync(b []byte, s Sync) []byte {
	var hdr [HeaderSize]byte
	at := len(b)
	b = append(b, hdr[:]...)
	b = append(b, uint8(len(s.Tenant)))
	b = append(b, s.Tenant...)
	b = binary.BigEndian.AppendUint64(b, s.Seq)
	return vdif.Seal(b, at, MsgSync)
}

// EncodeSync encodes a sync to wire bytes.
func EncodeSync(s Sync) []byte {
	return appendSync(make([]byte, 0, syncSize(len(s.Tenant))), s)
}

// syncSize is the wire size of a sync for a tenant id of that many bytes.
func syncSize(tenant int) int { return HeaderSize + 1 + tenant + 8 }

// DecodeSync decodes a sync payload.
func DecodeSync(payload []byte) (Sync, error) {
	tenant, seq, err := parseSync(payload)
	if err != nil {
		return Sync{}, err
	}
	return Sync{Tenant: string(tenant), Seq: seq}, nil
}

// parseSync takes a sync payload apart; the tenant id aliases it, so a
// connection answers a sync without allocating.
func parseSync(payload []byte) (tenant []byte, seq uint64, err error) {
	if len(payload) < 1 {
		return nil, 0, ErrTruncated
	}
	tn := int(payload[0])
	switch {
	case tn == 0:
		return nil, 0, fmt.Errorf("%w: empty tenant id", ErrMalformed)
	case tn > MaxTenant:
		return nil, 0, fmt.Errorf("%w: tenant id %d bytes > %d", ErrOversized, tn, MaxTenant)
	case len(payload) != 1+tn+8:
		return nil, 0, ErrTruncated
	}
	return payload[1 : 1+tn], binary.BigEndian.Uint64(payload[1+tn:]), nil
}

// ackSize is the wire size of an ack: header and seq.
const ackSize = HeaderSize + 8

// appendAck appends an encoded ack to b — EncodeAck into a buffer the
// caller reuses (a connection answers every Sync out of one).
func appendAck(b []byte, a Ack) []byte {
	var hdr [HeaderSize]byte
	at := len(b)
	b = append(b, hdr[:]...)
	b = binary.BigEndian.AppendUint64(b, a.Seq)
	return vdif.Seal(b, at, MsgAck)
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
	b := make([]byte, HeaderSize, HeaderSize+8+1+2+len(n.Reason))
	b = binary.BigEndian.AppendUint64(b, n.Seq)
	b = append(b, n.Code)
	b = binary.BigEndian.AppendUint16(b, uint16(len(n.Reason)))
	b = append(b, n.Reason...)
	return vdif.Seal(b, 0, MsgNack)
}

// ReadMsg reads one message and not a byte beyond it (wire.Format.ReadMsg).
func ReadMsg(r io.Reader) (msgType uint8, payload []byte, err error) {
	return vdif.ReadMsg(r)
}

// DecodeMsg is ReadMsg over a complete buffer; the payload aliases b.
func DecodeMsg(b []byte) (msgType uint8, payload []byte, err error) {
	return vdif.DecodeMsg(b)
}

// frameFields is a frame payload taken apart, every length checked. The
// byte fields alias the payload; pix is the 4·W·H bytes of big-endian
// float32 pixels.
type frameFields struct {
	tenant []byte
	seq    uint64
	w, h   int
	pix    []byte
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
	if len(rest) < tn+8+2+2+4 {
		return f, ErrTruncated
	}
	f.tenant = rest[:tn]
	rest = rest[tn:]
	f.seq = binary.BigEndian.Uint64(rest[0:8])
	f.w = int(binary.BigEndian.Uint16(rest[8:10]))
	f.h = int(binary.BigEndian.Uint16(rest[10:12]))
	npix := int(binary.BigEndian.Uint32(rest[12:16]))
	rest = rest[16:]
	if f.w < 1 || f.h < 1 {
		return frameFields{}, fmt.Errorf("%w: %dx%d frame", ErrMalformed, f.w, f.h)
	}
	if f.w > MaxDim || f.h > MaxDim {
		return frameFields{}, fmt.Errorf("%w: %dx%d frame > %dx%d", ErrOversized, f.w, f.h, MaxDim, MaxDim)
	}
	if npix != f.w*f.h {
		return frameFields{}, fmt.Errorf("%w: %d pixels for a %dx%d frame", ErrMalformed, npix, f.w, f.h)
	}
	if len(rest) != 4*npix {
		return frameFields{}, ErrTruncated
	}
	f.pix = rest
	return f, nil
}

// widen decodes big-endian float32 wire pixels into out, as float32 (a
// wire message's own precision) or widened to float64 (the monitor's).
func widen[P float32 | float64](out []P, pix []byte) {
	for i := range out {
		out[i] = P(math.Float32frombits(binary.BigEndian.Uint32(pix[4*i : 4*i+4])))
	}
}

// DecodeFrameMsg decodes a frame payload (the bytes after the header)
// into a wire message; the payload is not retained.
func DecodeFrameMsg(payload []byte) (FrameMsg, error) {
	f, err := parseFrame(payload)
	if err != nil {
		return FrameMsg{}, err
	}
	px := make([]float32, len(f.pix)/4)
	widen(px, f.pix)
	return FrameMsg{
		Tenant: string(f.tenant),
		Seq:    f.seq,
		W:      f.w,
		H:      f.h,
		Pixels: px,
	}, nil
}

// frameDecoder decodes frame payloads straight into the frame the fleet
// is fed — FrameFromMsg(DecodeFrameMsg(payload)) without the float32
// slice in between: the pixels widen out of the payload into a buffer
// borrowed from free, the router's free list, which takes it back once
// the fleet has processed the frame (the holders that keep a frame copy
// it: vidsim.Frame.Keep); a nil free allocates. A connection's frames
// repeat their tenant, so the string is reused while its bytes repeat.
// The zero value is ready; not safe for concurrent use.
type frameDecoder struct {
	tenant string
	free   *freeList
}

func (d *frameDecoder) decode(payload []byte) (tenant string, f vidsim.Frame, err error) {
	p, err := parseFrame(payload)
	if err != nil {
		return "", vidsim.Frame{}, err
	}
	if d.tenant != string(p.tenant) {
		d.tenant = string(p.tenant)
	}
	var px tensor.Vector
	if d.free != nil {
		px = d.free.get(len(p.pix) / 4)
	} else {
		px = make(tensor.Vector, len(p.pix)/4)
	}
	widen(px, p.pix)
	return d.tenant, vidsim.Frame{
		Index:  int(p.seq),
		W:      p.w,
		H:      p.h,
		Pixels: px,
	}, nil
}

// DecodeAck decodes an ack payload.
func DecodeAck(payload []byte) (Ack, error) {
	if len(payload) != 8 {
		return Ack{}, ErrTruncated
	}
	return Ack{Seq: binary.BigEndian.Uint64(payload)}, nil
}

// DecodeNack decodes a nack payload.
func DecodeNack(payload []byte) (Nack, error) {
	if len(payload) < 8+1+2 {
		return Nack{}, ErrTruncated
	}
	rn := int(binary.BigEndian.Uint16(payload[9:11]))
	if len(payload) != 11+rn {
		return Nack{}, ErrTruncated
	}
	return Nack{
		Seq:    binary.BigEndian.Uint64(payload[0:8]),
		Code:   payload[8],
		Reason: string(payload[11:]),
	}, nil
}

// FrameFromMsg converts a decoded frame message into the monitor's
// frame type. Index carries the wire sequence number; pixels widen
// float32 → float64, so this is the exact frame an in-process run must
// be fed to reproduce a wire run bit-identically.
func FrameFromMsg(m FrameMsg) vidsim.Frame {
	return frameOver(make(tensor.Vector, len(m.Pixels)), m)
}

// frameOver is FrameFromMsg with the pixels widened into px, which must
// be len(m.Pixels) long.
func frameOver(px tensor.Vector, m FrameMsg) vidsim.Frame {
	for i, p := range m.Pixels {
		px[i] = float64(p)
	}
	return vidsim.Frame{
		Index:  int(m.Seq),
		W:      m.W,
		H:      m.H,
		Pixels: px,
	}
}

// MsgFromFrame builds the wire message for a frame: pixels narrow
// float64 → float32 (the wire quantization); neither the ground truth
// nor the condition label travels — annotation is the server's job, as
// in the paper's setting.
func MsgFromFrame(tenant string, seq uint64, f vidsim.Frame) FrameMsg {
	px := make([]float32, len(f.Pixels))
	for i, p := range f.Pixels {
		px[i] = float32(p)
	}
	return FrameMsg{
		Tenant: tenant,
		Seq:    seq,
		W:      f.W,
		H:      f.H,
		Pixels: px,
	}
}
