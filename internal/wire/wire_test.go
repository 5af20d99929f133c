package wire

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"io"
	"testing"
	"testing/iotest"
)

// The two formats in the tree, as internal/ingest and internal/replica
// declare them (their golden-byte tests hold the encoders to the same
// messages).
var (
	vdif = Format{Magic: 0x56444946, Version: 2, MaxPayload: 4*4096*4096 + 337}
	vdrp = Format{Magic: 0x56445250, Version: 2, MaxPayload: 1 << 28}
)

func unhex(s string) []byte {
	b, err := hex.DecodeString(s)
	if err != nil {
		panic(err)
	}
	return b
}

// One message of each type of either protocol, byte for byte as the
// build before this package wrote them but for the version byte (and the
// ack's duplicate flag, which VDIF v2 dropped).
var (
	vdifFrame   = unhex("5644494602010000004a60e172dc0563616d2d30000000000000000700040003036461790000000c000000003e0000003e8000003ec000003f0000003f2000003f4000003f6000003f8000003f9000003fa000003fb00000")
	vdifAck     = unhex("56444946020200000008ae7e0ccc0000010000000000")
	vdifNack    = unhex("56444946020300000020845bcddd000000000000000c0200000032001174656e616e742071756575652066756c6c")
	vdrpHello   = unhex("564452500201000000105361ef4a0000000000000007000000000000002a")
	vdrpFull    = unhex("56445250020200000032ba149c2900000000000000070000000000000003000000000000002b000000000000002a0000000e656e76656c6f7065206279746573")
	vdrpDelta   = unhex("56445250020300000032ba149c2900000000000000070000000000000003000000000000002b000000000000002a0000000e656e76656c6f7065206279746573")
	vdrpApplied = unhex("56445250020400000008c99e2629000000000000002b")
	vdrpFenced  = unhex("564452500205000000081cfe67cd0000000000000009")
)

// protocol is a format with the messages the tests build streams from:
// a long one first, then short ones.
type protocol struct {
	name string
	f    Format
	msgs [][]byte
}

var protocols = []protocol{
	{"VDIF", vdif, [][]byte{vdifFrame, vdifAck, vdifNack}},
	{"VDRP", vdrp, [][]byte{vdrpDelta, vdrpHello, vdrpFull, vdrpApplied, vdrpFenced}},
}

func cat(msgs ...[]byte) []byte { return bytes.Join(msgs, nil) }

// damage returns b with the byte at index at (from the end when
// negative) xored with v.
func damage(b []byte, at int, v byte) []byte {
	b = append([]byte(nil), b...)
	if at < 0 {
		at += len(b)
	}
	b[at] ^= v
	return b
}

// oversize returns b declaring one payload byte more than f allows.
func oversize(f Format, b []byte) []byte {
	b = append([]byte(nil), b...)
	binary.BigEndian.PutUint32(b[6:10], f.MaxPayload+1)
	return b
}

// TestEnvelope holds the header layout to the parent build's bytes: each
// recorded message decodes under its format to its type and payload, and
// sealing that payload again writes the same bytes.
func TestEnvelope(t *testing.T) {
	for _, p := range protocols {
		for i, msg := range p.msgs {
			typ, payload, err := p.f.DecodeMsg(msg)
			if err != nil || typ != msg[5] || !bytes.Equal(payload, msg[HeaderSize:]) {
				t.Fatalf("%s message %d: type %d, %d payload bytes, err %v", p.name, i, typ, len(payload), err)
			}
			resealed := p.f.Seal(append(make([]byte, HeaderSize), payload...), 0, typ)
			if !bytes.Equal(resealed, msg) {
				t.Errorf("%s message %d: sealed % x, the parent build wrote % x", p.name, i, resealed[:HeaderSize], msg[:HeaderSize])
			}
			// Sealing behind bytes already in the buffer leaves them alone.
			behind := append(append([]byte("xyz"), make([]byte, HeaderSize)...), payload...)
			if behind = p.f.Seal(behind, 3, typ); !bytes.Equal(behind, cat([]byte("xyz"), msg)) {
				t.Errorf("%s message %d: sealed at offset 3: % x", p.name, i, behind)
			}
		}
	}
}

// TestFormatsDoNotCross feeds each protocol's stream to the other's
// format: bad magic, never a decoded message.
func TestFormatsDoNotCross(t *testing.T) {
	for i, p := range protocols {
		other := protocols[1-i]
		stream := cat(p.msgs...)
		if _, payload, err := other.f.ReadMsg(bytes.NewReader(stream)); !errors.Is(err, ErrBadMagic) || payload != nil {
			t.Errorf("a %s stream read as %s: err %v, %d payload bytes; want ErrBadMagic", p.name, other.name, err, len(payload))
		}
		if _, payload, err := other.f.DecodeMsg(p.msgs[0]); !errors.Is(err, ErrBadMagic) || payload != nil {
			t.Errorf("a %s message decoded as %s: err %v; want ErrBadMagic", p.name, other.name, err)
		}
		rd := other.f.NewReader(bytes.NewReader(stream), ConnBufSize)
		if _, payload, err := rd.Next(); !errors.Is(err, ErrBadMagic) || payload != nil {
			t.Errorf("a %s stream through a %s connection reader: err %v; want ErrBadMagic", p.name, other.name, err)
		}
	}
}

// TestReadMsgErrors pins every header-level rejection as its typed
// error, under both formats.
func TestReadMsgErrors(t *testing.T) {
	for _, p := range protocols {
		msg, short := p.msgs[0], p.msgs[1]
		for _, c := range []struct {
			name string
			b    []byte
			want error
		}{
			{"bad magic", damage(msg, 0, 'V'^'X'), ErrBadMagic},
			{"truncated header", msg[:HeaderSize-3], ErrTruncated},
			{"truncated payload", msg[:HeaderSize+5], ErrTruncated},
			{"crc mismatch", damage(msg, -1, 0x40), ErrChecksum},
			{"oversized declared length", oversize(p.f, msg), ErrOversized},
			{"clean close", nil, io.EOF},
		} {
			if _, _, err := p.f.ReadMsg(bytes.NewReader(c.b)); !errors.Is(err, c.want) {
				t.Errorf("%s: %s: err %v, want %v", p.name, c.name, err, c.want)
			}
		}
		if _, _, err := p.f.DecodeMsg(msg[:4]); !errors.Is(err, ErrTruncated) {
			t.Errorf("%s: DecodeMsg of four bytes: %v, want ErrTruncated", p.name, err)
		}

		// A future version and v1, the epoch before both formats' v2.
		for _, v := range []uint8{9, 1} {
			var verr *VersionError
			_, _, err := p.f.ReadMsg(bytes.NewReader(damage(msg, 4, p.f.Version^v)))
			if !errors.As(err, &verr) || *verr != (VersionError{Got: v, Want: p.f.Version}) {
				t.Fatalf("%s: version %d: err %v, want *VersionError{Got:%d, Want:%d}", p.name, v, err, v, p.f.Version)
			}
		}

		// CRC failure must leave the stream aligned: the next message on the
		// same reader still decodes.
		r := bytes.NewReader(cat(damage(msg, -1, 1), short))
		if typ, _, err := p.f.ReadMsg(r); !errors.Is(err, ErrChecksum) || typ != msg[5] {
			t.Fatalf("%s: first message: type %d, %v; want type %d, ErrChecksum", p.name, typ, err, msg[5])
		}
		typ, payload, err := p.f.ReadMsg(r)
		if err != nil || typ != short[5] || !bytes.Equal(payload, short[HeaderSize:]) {
			t.Fatalf("%s: stream desynced after CRC failure: type %d err %v", p.name, typ, err)
		}
	}
}

// wireMsg is one message as a reader returned it.
type wireMsg struct {
	typ     uint8
	payload []byte
	err     string
}

// drain reads messages until the stream ends or desyncs (any error but a
// CRC failure, which leaves it aligned), copying each payload: a
// Reader's is only valid until its next call.
func drain(next func() (uint8, []byte, error)) []wireMsg {
	var out []wireMsg
	for {
		typ, payload, err := next()
		m := wireMsg{typ: typ, payload: append([]byte(nil), payload...)}
		if err != nil {
			m.err = err.Error()
		}
		out = append(out, m)
		if err != nil && !errors.Is(err, ErrChecksum) {
			return out
		}
	}
}

// sameAsReadMsg holds a Reader with a size-byte buffer over r to what
// ReadMsg returns for the same stream, message by message: types,
// payloads, typed errors and the stream's end.
func sameAsReadMsg(t *testing.T, f Format, name string, stream []byte, r io.Reader, size int) []wireMsg {
	t.Helper()
	ref := bytes.NewReader(stream)
	want := drain(func() (uint8, []byte, error) { return f.ReadMsg(ref) })
	rd := f.NewReader(r, size)
	got := drain(rd.Next)
	if len(got) != len(want) {
		t.Fatalf("%s: %d messages, ReadMsg reads %d", name, len(got), len(want))
	}
	for i := range want {
		if got[i].typ != want[i].typ || got[i].err != want[i].err || !bytes.Equal(got[i].payload, want[i].payload) {
			t.Fatalf("%s: message %d: type %d, %d payload bytes, err %q; ReadMsg: type %d, %d bytes, err %q",
				name, i, got[i].typ, len(got[i].payload), got[i].err, want[i].typ, len(want[i].payload), want[i].err)
		}
	}
	return got
}

// chunkReader hands out the stream in the chunks given, one per Read, and
// counts the Reads.
type chunkReader struct {
	chunks [][]byte
	reads  int
}

func (c *chunkReader) Read(p []byte) (int, error) {
	if len(c.chunks) == 0 {
		return 0, io.EOF
	}
	c.reads++
	n := copy(p, c.chunks[0])
	if c.chunks[0] = c.chunks[0][n:]; len(c.chunks[0]) == 0 {
		c.chunks = c.chunks[1:]
	}
	return n, nil
}

// stalledReader never returns data nor an error.
type stalledReader struct{}

func (stalledReader) Read([]byte) (int, error) { return 0, nil }

// TestMsgReader pins the buffered reader against ReadMsg, under both
// formats, on the streams a connection can see: whole messages, a byte at
// a time, several messages and a torn one in a single read, a message
// larger than the buffer, damage of every kind.
func TestMsgReader(t *testing.T) {
	for _, p := range protocols {
		long, short, third := p.msgs[0], p.msgs[1], p.msgs[2]
		payload := make([]byte, ConnBufSize+1)
		for i := range payload {
			payload[i] = byte(i * 7)
		}
		big := p.f.Seal(append(make([]byte, HeaderSize), payload...), 0, long[5])

		streams := []struct {
			name   string
			stream []byte
			msgs   int // messages before the stream's end or desync
		}{
			{"empty", nil, 0},
			{"one of each", cat(p.msgs...), len(p.msgs)},
			{"empty payload", p.f.Seal(make([]byte, HeaderSize), 0, short[5]), 1},
			{"larger than the buffer, then small", cat(short, big, long, big, third), 5},
			{"crc failure, in the buffer", cat(damage(long, -1, 0x40), short), 2},
			{"crc failure, larger than the buffer", cat(damage(big, -1, 1), short), 2},
			{"bad magic", cat(short, damage(long, 0, 0xff), short), 1},
			{"version skew", cat(damage(short, 4, 8), short), 0},
			{"oversized declared length", cat(long, oversize(p.f, short)), 1},
			{"truncated header", cat(long, short[:HeaderSize-3]), 1},
			{"truncated payload", cat(short, long[:HeaderSize+5]), 1},
			{"truncated payload, larger than the buffer", big[:len(big)-1], 0},
		}
		for _, tc := range streams {
			name := p.name + ": " + tc.name
			for _, size := range []int{ConnBufSize, 64, HeaderSize} {
				whole := sameAsReadMsg(t, p.f, name, tc.stream, bytes.NewReader(tc.stream), size)
				if len(whole) != tc.msgs+1 {
					t.Errorf("%s: %d messages before the end, want %d", name, len(whole)-1, tc.msgs)
				}
				sameAsReadMsg(t, p.f, name+", a byte at a time", tc.stream, iotest.OneByteReader(bytes.NewReader(tc.stream)), size)
				sameAsReadMsg(t, p.f, name+", data with EOF", tc.stream, iotest.DataErrReader(bytes.NewReader(tc.stream)), size)
			}
		}

		// The typed errors, not just their text.
		rd := p.f.NewReader(bytes.NewReader(damage(short, 4, 8)), 64)
		var verr *VersionError
		if _, _, err := rd.Next(); !errors.As(err, &verr) || verr.Got != p.f.Version^8 {
			t.Errorf("%s: version skew: err %v, want *VersionError{Got:%d}", p.name, err, p.f.Version^8)
		}
		for name, tc := range map[string]struct {
			r    io.Reader
			want error
		}{
			"bad magic":         {bytes.NewReader(damage(short, 1, 0xff)), ErrBadMagic},
			"oversize":          {bytes.NewReader(oversize(p.f, short)), ErrOversized},
			"crc":               {bytes.NewReader(damage(short, -1, 1)), ErrChecksum},
			"truncated header":  {bytes.NewReader(short[:5]), ErrTruncated},
			"truncated payload": {bytes.NewReader(short[:len(short)-1]), ErrTruncated},
			"clean close":       {bytes.NewReader(nil), io.EOF},
			"stalled":           {stalledReader{}, io.ErrNoProgress},
		} {
			rd := p.f.NewReader(tc.r, 64)
			if _, _, err := rd.Next(); !errors.Is(err, tc.want) {
				t.Errorf("%s: %s: err %v, want %v", p.name, name, err, tc.want)
			}
		}

		// Two and a half messages in one read: the first read serves two
		// messages, the third waits for exactly one more — and Buffered
		// says so beforehand: a whole message is waiting after the first,
		// half of one after the second.
		half := len(third) / 2
		cr := &chunkReader{chunks: [][]byte{cat(long, short, third[:half]), third[half:]}}
		rd = p.f.NewReader(cr, ConnBufSize)
		if rd.Buffered() {
			t.Fatalf("%s: a reader that has not read reports a message buffered", p.name)
		}
		for i, want := range []struct {
			msg      []byte
			reads    int
			buffered bool
		}{{long, 1, true}, {short, 1, false}, {third, 2, false}} {
			typ, _, err := rd.Next()
			if err != nil || typ != want.msg[5] || cr.reads != want.reads {
				t.Fatalf("%s: message %d of two and a half in one read: type %d, err %v, after %d reads; want type %d after %d", p.name, i, typ, err, cr.reads, want.msg[5], want.reads)
			}
			if rd.Buffered() != want.buffered {
				t.Fatalf("%s: after message %d of two and a half in one read, Buffered %v", p.name, i, !want.buffered)
			}
		}
		if _, _, err := rd.Next(); err != io.EOF {
			t.Fatalf("%s: after the last message: %v, want io.EOF", p.name, err)
		}

		// ReadMsg takes the message and nothing after it — the stream can be
		// handed on — and its payload is the caller's: the next message read
		// off the same stream does not overwrite it (a standby keeps a
		// generation's bytes).
		r := bytes.NewReader(cat(short, long))
		_, kept, err := p.f.ReadMsg(r)
		if err != nil || r.Len() != len(long) {
			t.Fatalf("%s: ReadMsg left %d bytes of a %d-byte message behind it (err %v)", p.name, r.Len(), len(long), err)
		}
		if _, _, err := p.f.ReadMsg(r); err != nil || !bytes.Equal(kept, short[HeaderSize:]) {
			t.Fatalf("%s: the payload ReadMsg returned changed under the next read (err %v)", p.name, err)
		}
	}
}

// FuzzMsgReader throws arbitrary streams at the buffered reader, through
// a small buffer and in arbitrary read sizes, under both formats:
// whatever ReadMsg makes of the stream — messages, typed errors, where it
// stops — the reader makes too, and neither panics.
func FuzzMsgReader(f *testing.F) {
	f.Add(cat(vdifFrame, vdifAck), uint8(7))
	f.Add(cat(vdifAck, vdifFrame[:40]), uint8(1))
	f.Add(cat(vdrpHello, vdrpDelta), uint8(3))
	f.Add(cat(vdrpApplied, vdrpFull[:HeaderSize+3]), uint8(12))
	f.Add(vdifFrame[:HeaderSize], uint8(3))
	f.Add([]byte("VDIF"), uint8(0))
	f.Add([]byte("VDRP"), uint8(0))
	f.Fuzz(func(t *testing.T, stream []byte, chunk uint8) {
		// A declared length the stream does not hold is allocated before it
		// is found missing (by ReadMsg as by the reader); keep the fuzzer
		// from spending its time on 64 MB of zeroes, at the stream's head at
		// least.
		if len(stream) >= 10 && binary.BigEndian.Uint32(stream[6:10]) > 1<<16 {
			t.Skip()
		}
		for _, p := range protocols {
			var chunks [][]byte
			for rest := stream; len(rest) > 0; {
				n := min(int(chunk)+1, len(rest))
				chunks = append(chunks, rest[:n])
				rest = rest[n:]
			}
			sameAsReadMsg(t, p.f, p.name, stream, &chunkReader{chunks: chunks}, 48)
		}
	})
}
