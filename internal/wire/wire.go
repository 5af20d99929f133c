// Package wire is the framing layer under the repository's two binary
// protocols, VDIF (internal/ingest: frames in, acks and nacks out) and
// VDRP (internal/replica: checkpoint generations to a hot standby). It
// is the one place a length-prefixed message is sealed, read and checked
// (DESIGN.md §18). Every message of either protocol is
//
//	magic   u32  the protocol's Format.Magic ("VDIF", "VDRP")
//	version u8   Format.Version
//	type    u8   the protocol's own message table
//	len     u32  payload length in bytes, at most Format.MaxPayload
//	crc     u32  CRC-32 (IEEE) of the payload
//	payload len bytes
//
// all big-endian. The CRC covers the payload only; header damage is
// caught by the magic, version and length checks. Reading never trusts a
// declared length beyond the format's cap, and every violation surfaces
// as a typed error (ErrBadMagic, ErrTruncated, ErrChecksum,
// ErrOversized, *VersionError) — never a panic. What a payload holds is
// the protocols' business: this package knows nothing of message types.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// HeaderSize is the fixed size of the message header in bytes.
const HeaderSize = 14

// Typed framing errors, shared by every format: errors.Is holds across
// the packages that alias them.
var (
	// ErrBadMagic reports a header that does not start with the format's
	// magic — the peer is not speaking this protocol (or the stream
	// desynced).
	ErrBadMagic = errors.New("wire: bad magic")
	// ErrTruncated reports a message or payload shorter than its declared
	// contents.
	ErrTruncated = errors.New("wire: truncated message")
	// ErrChecksum reports a payload whose CRC does not match the header.
	ErrChecksum = errors.New("wire: payload checksum mismatch")
	// ErrOversized reports a declared length beyond the protocol limits.
	ErrOversized = errors.New("wire: oversized message")
)

// VersionError reports a protocol version the format does not speak.
type VersionError struct{ Got, Want uint8 }

func (e *VersionError) Error() string {
	return fmt.Sprintf("wire: protocol version %d (want %d)", e.Got, e.Want)
}

// Format is what distinguishes one protocol's envelope from another's:
// the magic number, the version byte and the cap on a declared payload.
type Format struct {
	Magic      uint32
	Version    uint8
	MaxPayload uint32
}

// Seal completes the message that starts at b[at]: the first HeaderSize
// bytes there are reserved, everything after them is the payload, and the
// header — magic, version, type, payload length, payload CRC — is written
// over the reservation. Encoders append the payload behind a reserved
// header and seal, so a message is built in one buffer.
func (f Format) Seal(b []byte, at int, msgType uint8) []byte {
	hdr, payload := b[at:at+HeaderSize], b[at+HeaderSize:]
	binary.BigEndian.PutUint32(hdr[0:4], f.Magic)
	hdr[4], hdr[5] = f.Version, msgType
	binary.BigEndian.PutUint32(hdr[6:10], uint32(len(payload)))
	binary.BigEndian.PutUint32(hdr[10:14], crc32.ChecksumIEEE(payload))
	return b
}

// parseHeader validates a header — the one place a message's magic,
// version and declared payload length are checked — and returns its
// fields. h holds at least HeaderSize bytes.
func (f Format) parseHeader(h []byte) (msgType uint8, n int, crc uint32, err error) {
	h = h[:HeaderSize]
	if binary.BigEndian.Uint32(h[0:4]) != f.Magic {
		return 0, 0, 0, ErrBadMagic
	}
	if h[4] != f.Version {
		return 0, 0, 0, &VersionError{Got: h[4], Want: f.Version}
	}
	declared := binary.BigEndian.Uint32(h[6:10])
	if declared > f.MaxPayload {
		return 0, 0, 0, fmt.Errorf("%w: declared payload %d > %d", ErrOversized, declared, f.MaxPayload)
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

// ConnBufSize is a connection's standing read buffer: a 32×32 frame is
// 4.1 KB on the wire, so a few fit. A message that does not fit is read
// into a buffer of its own, so a connection's resident memory does not
// follow the largest message it ever carried.
const ConnBufSize = 16 << 10

// Reader reads length-prefixed messages off a stream through one buffer
// it owns: a message that arrived whole costs one Read, header and
// payload together, and whatever else that Read returned — the next
// message, or half of it — is served from the buffer before the stream is
// touched again. Over a buffer of exactly HeaderSize there is no room to
// read ahead, so it consumes the messages it returns and not a byte more
// (ReadMsg).
type Reader struct {
	f      Format
	r      io.Reader
	buf    []byte
	rd, wr int // buf[rd:wr] is read off the stream and not yet consumed
}

// NewReader returns a reader of f's messages off r through a buffer of
// size bytes, at least HeaderSize, for a connection's loop to hold by value.
func (f Format) NewReader(r io.Reader, size int) Reader {
	return Reader{f: f, r: r, buf: make([]byte, size)}
}

// Next returns the next message: header validation, then exactly the
// declared payload, then the CRC check. The payload aliases the reader's
// buffer and is valid until the following call, unless the message is
// larger than the buffer, when it is the caller's own. io.EOF means the
// stream closed between messages. On a header-level error the stream
// position is undefined (drop the connection); a CRC failure leaves the
// stream aligned on the next message.
func (m *Reader) Next() (msgType uint8, payload []byte, err error) {
	if err := m.fill(HeaderSize); err != nil {
		if err == io.EOF && m.rd < m.wr {
			return 0, nil, ErrTruncated
		}
		return 0, nil, err
	}
	msgType, n, crc, err := m.f.parseHeader(m.buf[m.rd:])
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

// Buffered reports whether a whole message is already in the buffer, so
// the next Next returns without touching the stream.
func (m *Reader) Buffered() bool {
	if m.wr-m.rd < HeaderSize {
		return false
	}
	n := binary.BigEndian.Uint32(m.buf[m.rd+6 : m.rd+10])
	return uint64(n) <= uint64(m.wr-m.rd-HeaderSize)
}

// fill reads until need unconsumed bytes are buffered (need is at most
// the buffer's size), moving a partial message to the front when the
// tail has no room for the rest of it. The error of a Read that also
// completed the need is left for the next Read to repeat.
func (m *Reader) fill(need int) error {
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

// ReadMsg reads one message off the stream — header validation, exactly
// the declared payload, the CRC check — and not a byte beyond it, so the
// stream may be handed to another reader afterwards. The payload is the
// caller's to keep. Errors are Next's.
func (f Format) ReadMsg(r io.Reader) (msgType uint8, payload []byte, err error) {
	m := f.NewReader(r, HeaderSize)
	return m.Next()
}

// DecodeMsg decodes one message from a complete buffer (header +
// payload), the io-free sibling of ReadMsg. The payload aliases b.
func (f Format) DecodeMsg(b []byte) (msgType uint8, payload []byte, err error) {
	if len(b) < HeaderSize {
		return 0, nil, ErrTruncated
	}
	msgType, n, crc, err := f.parseHeader(b)
	if err != nil {
		return 0, nil, err
	}
	if len(b)-HeaderSize < n {
		return 0, nil, ErrTruncated
	}
	return checkPayload(msgType, b[HeaderSize:HeaderSize+n], crc)
}
