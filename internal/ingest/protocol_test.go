package ingest

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"strings"
	"testing"
	"testing/iotest"

	"videodrift/internal/faults"
	"videodrift/internal/vidsim"
)

// testFrameMsg builds a small valid frame message.
func testFrameMsg() FrameMsg {
	px := make([]float32, 4*3)
	for i := range px {
		px[i] = float32(i) * 0.125
	}
	return FrameMsg{Tenant: "cam-0", Seq: 7, W: 4, H: 3, Condition: "day", Pixels: px}
}

// TestHeaderSizeMatchesFaults pins the agreement the fault injector
// relies on: corruption offsets start at faults.NetHeaderBytes, which
// must equal this protocol's header size so injected damage always
// lands in the CRC-covered payload, never desyncing the stream.
func TestHeaderSizeMatchesFaults(t *testing.T) {
	if HeaderSize != faults.NetHeaderBytes {
		t.Fatalf("ingest.HeaderSize = %d, faults.NetHeaderBytes = %d — corruption could land in the header", HeaderSize, faults.NetHeaderBytes)
	}
}

// TestFrameRoundTrip pins the frame encode/decode loop, including the
// wire path through ReadMsg.
func TestFrameRoundTrip(t *testing.T) {
	m := testFrameMsg()
	wire := EncodeFrame(m)
	typ, payload, err := ReadMsg(bytes.NewReader(wire))
	if err != nil {
		t.Fatal(err)
	}
	if typ != MsgFrame {
		t.Fatalf("message type %d, want %d", typ, MsgFrame)
	}
	got, err := DecodeFrameMsg(payload)
	if err != nil {
		t.Fatal(err)
	}
	if got.Tenant != m.Tenant || got.Seq != m.Seq || got.W != m.W || got.H != m.H || got.Condition != m.Condition {
		t.Fatalf("decoded %+v, want %+v", got, m)
	}
	for i := range m.Pixels {
		if got.Pixels[i] != m.Pixels[i] {
			t.Fatalf("pixel %d: %v, want %v", i, got.Pixels[i], m.Pixels[i])
		}
	}
	// DecodeMsg is the io-free sibling — same result from the buffer.
	typ2, payload2, err := DecodeMsg(wire)
	if err != nil || typ2 != MsgFrame || !bytes.Equal(payload, payload2) {
		t.Fatalf("DecodeMsg disagreed with ReadMsg: type %d err %v", typ2, err)
	}
}

// TestAckNackRoundTrip pins the control-message loops.
func TestAckNackRoundTrip(t *testing.T) {
	for _, a := range []Ack{{Seq: 0}, {Seq: 1 << 40, Dup: true}} {
		typ, payload, err := DecodeMsg(EncodeAck(a))
		if err != nil || typ != MsgAck {
			t.Fatalf("ack %+v: type %d err %v", a, typ, err)
		}
		got, err := DecodeAck(payload)
		if err != nil || got != a {
			t.Fatalf("ack round trip %+v -> %+v (%v)", a, got, err)
		}
	}
	n := Nack{Seq: 12, Code: NackQueueFull, RetryAfterMillis: 50, Reason: "tenant queue full"}
	typ, payload, err := DecodeMsg(EncodeNack(n))
	if err != nil || typ != MsgNack {
		t.Fatalf("nack: type %d err %v", typ, err)
	}
	got, err := DecodeNack(payload)
	if err != nil || got != n {
		t.Fatalf("nack round trip %+v -> %+v (%v)", n, got, err)
	}
	if _, err := DecodeAck(payload); !errors.Is(err, ErrTruncated) {
		t.Fatalf("DecodeAck on a nack payload: %v, want ErrTruncated", err)
	}
}

// TestFrameQuantization pins the float32 wire quantization:
// FrameFromMsg(MsgFromFrame(f)) is the float32-rounded image of f, and
// a second trip is the identity (quantization is idempotent — the
// loopback determinism contract depends on this).
func TestFrameQuantization(t *testing.T) {
	f := vidsim.GenerateTrainingStride(vidsim.Day(), 8, 8, 1, 1, 99)[0]
	q := FrameFromMsg(MsgFromFrame("t", 5, f))
	if q.Index != 5 || q.W != f.W || q.H != f.H || q.Condition != f.Condition {
		t.Fatalf("quantized frame header %+v, source %+v", q, f)
	}
	changed := false
	for i := range f.Pixels {
		if want := float64(float32(f.Pixels[i])); q.Pixels[i] != want {
			t.Fatalf("pixel %d: %v, want float32-rounded %v", i, q.Pixels[i], want)
		}
		if q.Pixels[i] != f.Pixels[i] {
			changed = true
		}
	}
	if !changed {
		t.Log("warning: no pixel actually lost precision; fixture too coarse to prove quantization")
	}
	q2 := FrameFromMsg(MsgFromFrame("t", 5, q))
	for i := range q.Pixels {
		if q2.Pixels[i] != q.Pixels[i] {
			t.Fatalf("pixel %d: quantization not idempotent", i)
		}
	}
	if MsgFromFrame("t", 0, f).Tenant != "t" {
		t.Fatal("tenant id lost")
	}
}

// TestReadMsgErrors pins every header-level rejection as its typed
// error.
func TestReadMsgErrors(t *testing.T) {
	wire := EncodeFrame(testFrameMsg())

	damage := func(mut func(b []byte)) []byte {
		b := append([]byte(nil), wire...)
		mut(b)
		return b
	}
	cases := []struct {
		name string
		b    []byte
		want error
	}{
		{"bad magic", damage(func(b []byte) { b[0] = 'X' }), ErrBadMagic},
		{"truncated header", wire[:HeaderSize-3], ErrTruncated},
		{"truncated payload", wire[:HeaderSize+5], ErrTruncated},
		{"crc mismatch", damage(func(b []byte) { b[len(b)-1] ^= 0x40 }), ErrChecksum},
		{"oversized declared length", damage(func(b []byte) {
			binary.BigEndian.PutUint32(b[6:10], MaxPayload+1)
		}), ErrOversized},
	}
	for _, c := range cases {
		if _, _, err := ReadMsg(bytes.NewReader(c.b)); !errors.Is(err, c.want) {
			t.Errorf("%s: err %v, want %v", c.name, err, c.want)
		}
	}

	var verr *VersionError
	_, _, err := ReadMsg(bytes.NewReader(damage(func(b []byte) { b[4] = 9 })))
	if !errors.As(err, &verr) || verr.Got != 9 {
		t.Fatalf("version 9: err %v, want *VersionError{Got:9}", err)
	}

	// CRC failure must leave the stream aligned: the next message on the
	// same reader still decodes.
	r := bytes.NewReader(append(damage(func(b []byte) { b[len(b)-1] ^= 1 }), EncodeAck(Ack{Seq: 3})...))
	if _, _, err := ReadMsg(r); !errors.Is(err, ErrChecksum) {
		t.Fatalf("first message: %v, want ErrChecksum", err)
	}
	typ, payload, err := ReadMsg(r)
	if err != nil || typ != MsgAck {
		t.Fatalf("stream desynced after CRC failure: type %d err %v", typ, err)
	}
	if a, _ := DecodeAck(payload); a.Seq != 3 {
		t.Fatalf("ack after CRC failure: %+v", a)
	}
}

// TestDecodeFrameMsgErrors pins the payload-level rejections.
func TestDecodeFrameMsgErrors(t *testing.T) {
	valid := func() []byte {
		wire := EncodeFrame(testFrameMsg())
		return append([]byte(nil), wire[HeaderSize:]...)
	}
	reject := func(name string, payload []byte, want error) {
		t.Helper()
		if _, err := DecodeFrameMsg(payload); !errors.Is(err, want) {
			t.Errorf("%s: err %v, want %v", name, err, want)
		}
	}
	reject("empty payload", nil, ErrTruncated)
	reject("empty tenant", append([]byte{0}, valid()[1:]...), ErrMalformed)
	reject("oversized tenant", append([]byte{MaxTenant + 1}, valid()[1:]...), ErrOversized)
	reject("truncated mid-header", valid()[:4], ErrTruncated)
	reject("truncated mid-pixels", valid()[:len(valid())-7], ErrTruncated)

	zeroW := valid()
	// tenant "cam-0" is 5 bytes: w is at offset 1+5+8.
	binary.BigEndian.PutUint16(zeroW[14:16], 0)
	reject("zero width", zeroW, ErrMalformed)

	bigH := valid()
	binary.BigEndian.PutUint16(bigH[16:18], MaxDim+1)
	reject("oversized height", bigH, ErrOversized)

	wrongN := valid()
	// npix is after tenant(1+5) + seq(8) + dims(4) + condLen(1) + "day"(3).
	binary.BigEndian.PutUint32(wrongN[22:26], 5)
	reject("pixel count vs geometry", wrongN, ErrMalformed)
}

// wireMsg is one message as a reader returned it.
type wireMsg struct {
	typ     uint8
	payload []byte
	err     string
}

// drain reads messages until the stream ends or desyncs (any error but a
// CRC failure, which leaves it aligned), copying each payload: a
// msgReader's is only valid until its next call.
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

// sameAsReadMsg holds a msgReader with a size-byte buffer over r to what
// ReadMsg returns for the same stream, message by message: types,
// payloads, typed errors and the stream's end.
func sameAsReadMsg(t *testing.T, name string, stream []byte, r io.Reader, size int) []wireMsg {
	t.Helper()
	ref := bytes.NewReader(stream)
	want := drain(func() (uint8, []byte, error) { return ReadMsg(ref) })
	rd := msgReader{r: r, buf: make([]byte, size)}
	got := drain(rd.next)
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

// TestMsgReader pins the buffered reader against ReadMsg on the streams
// a connection can see: whole messages, a byte at a time, several
// messages and a torn one in a single read, a message larger than the
// buffer, damage of every kind.
func TestMsgReader(t *testing.T) {
	frame := EncodeFrame(testFrameMsg())
	ack, nack := EncodeAck(Ack{Seq: 3, Dup: true}), EncodeNack(Nack{Seq: 4, Code: NackBadSeq, Reason: "want seq 1, got 4"})
	wide := testFrameMsg()
	wide.W, wide.H, wide.Pixels = MaxDim, 1, make([]float32, MaxDim)
	for i := range wide.Pixels {
		wide.Pixels[i] = float32(i) / MaxDim
	}
	big := EncodeFrame(wide)
	if len(big) <= connBufSize {
		t.Fatalf("a %d-pixel frame is %d bytes on the wire and fits a %d-byte buffer: not the case this test is after", MaxDim, len(big), connBufSize)
	}
	cat := func(msgs ...[]byte) []byte { return bytes.Join(msgs, nil) }
	damage := func(b []byte, at int, v byte) []byte {
		b = append([]byte(nil), b...)
		b[at] ^= v
		return b
	}
	oversize := append([]byte(nil), ack...)
	binary.BigEndian.PutUint32(oversize[6:10], MaxPayload+1)

	streams := []struct {
		name   string
		stream []byte
		msgs   int // messages before the stream's end or desync
	}{
		{"empty", nil, 0},
		{"one of each", cat(frame, ack, nack), 3},
		{"empty payload", sealMsg(make([]byte, HeaderSize), 0, MsgAck), 1},
		{"larger than the buffer, then small", cat(ack, big, frame, big, nack), 5},
		{"crc failure, in the buffer", cat(damage(frame, len(frame)-1, 0x40), ack), 2},
		{"crc failure, larger than the buffer", cat(damage(big, len(big)-1, 1), ack), 2},
		{"bad magic", cat(ack, damage(frame, 0, 0xff), ack), 1},
		{"version skew", cat(damage(ack, 4, 8), ack), 0},
		{"oversized declared length", cat(frame, oversize), 1},
		{"truncated header", cat(frame, ack[:HeaderSize-3]), 1},
		{"truncated payload", cat(ack, frame[:HeaderSize+5]), 1},
		{"truncated payload, larger than the buffer", big[:len(big)-1], 0},
	}
	for _, tc := range streams {
		for _, size := range []int{connBufSize, 64, HeaderSize} {
			whole := sameAsReadMsg(t, tc.name, tc.stream, bytes.NewReader(tc.stream), size)
			if len(whole) != tc.msgs+1 {
				t.Errorf("%s: %d messages before the end, want %d", tc.name, len(whole)-1, tc.msgs)
			}
			sameAsReadMsg(t, tc.name+", a byte at a time", tc.stream, iotest.OneByteReader(bytes.NewReader(tc.stream)), size)
			sameAsReadMsg(t, tc.name+", data with EOF", tc.stream, iotest.DataErrReader(bytes.NewReader(tc.stream)), size)
		}
	}

	// The typed errors, not just their text.
	rd := msgReader{r: bytes.NewReader(damage(ack, 4, 8)), buf: make([]byte, 64)}
	var verr *VersionError
	if _, _, err := rd.next(); !errors.As(err, &verr) || verr.Got != Version^8 {
		t.Errorf("version skew: err %v, want *VersionError{Got:%d}", err, Version^8)
	}
	for name, tc := range map[string]struct {
		r    io.Reader
		want error
	}{
		"bad magic":         {bytes.NewReader(damage(ack, 1, 0xff)), ErrBadMagic},
		"oversize":          {bytes.NewReader(oversize), ErrOversized},
		"crc":               {bytes.NewReader(damage(ack, len(ack)-1, 1)), ErrChecksum},
		"truncated header":  {bytes.NewReader(ack[:5]), ErrTruncated},
		"truncated payload": {bytes.NewReader(ack[:len(ack)-1]), ErrTruncated},
		"clean close":       {bytes.NewReader(nil), io.EOF},
		"stalled":           {stalledReader{}, io.ErrNoProgress},
	} {
		rd := msgReader{r: tc.r, buf: make([]byte, 64)}
		if _, _, err := rd.next(); !errors.Is(err, tc.want) {
			t.Errorf("%s: err %v, want %v", name, err, tc.want)
		}
	}

	// Two and a half messages in one read: the first read serves two
	// messages, the third waits for exactly one more.
	half := len(nack) / 2
	cr := &chunkReader{chunks: [][]byte{cat(frame, ack, nack[:half]), nack[half:]}}
	rd = msgReader{r: cr, buf: make([]byte, connBufSize)}
	for i, want := range []struct {
		typ   uint8
		reads int
	}{{MsgFrame, 1}, {MsgAck, 1}, {MsgNack, 2}} {
		typ, _, err := rd.next()
		if err != nil || typ != want.typ || cr.reads != want.reads {
			t.Fatalf("message %d of two and a half in one read: type %d, err %v, after %d reads; want type %d after %d", i, typ, err, cr.reads, want.typ, want.reads)
		}
	}
	if _, _, err := rd.next(); err != io.EOF {
		t.Fatalf("after the last message: %v, want io.EOF", err)
	}

	// ReadMsg takes the message and nothing after it: the stream can be
	// handed on.
	r := bytes.NewReader(cat(ack, frame))
	if _, _, err := ReadMsg(r); err != nil || r.Len() != len(frame) {
		t.Fatalf("ReadMsg left %d bytes of a %d-byte message behind it (err %v)", r.Len(), len(frame), err)
	}
}

// stalledReader never returns data nor an error.
type stalledReader struct{}

func (stalledReader) Read([]byte) (int, error) { return 0, nil }

// TestFrameDecoderDoesNotAliasTheBuffer pins what "straight out of the
// read buffer" must not mean: a decoded frame holds no reference to the
// payload it came from, so the next message overwriting the buffer leaves
// the queued frame — pixels, tenant and condition — as it was.
func TestFrameDecoderDoesNotAliasTheBuffer(t *testing.T) {
	first, second := testFrameMsg(), testFrameMsg()
	second.Tenant, second.Condition, second.Seq = "cam-1", "fog", 8
	for i := range second.Pixels {
		second.Pixels[i] = -1
	}
	rd := msgReader{r: bytes.NewReader(append(EncodeFrame(first), EncodeFrame(second)...)), buf: make([]byte, 128)}
	var dec frameDecoder
	_, payload, err := rd.next()
	if err != nil {
		t.Fatal(err)
	}
	tenant, f, err := dec.decode(payload)
	if err != nil {
		t.Fatal(err)
	}
	if _, payload, err = rd.next(); err != nil {
		t.Fatal(err)
	}
	tenant2, f2, err := dec.decode(payload)
	if err != nil {
		t.Fatal(err)
	}
	for i := range payload {
		payload[i] = 0xee
	}
	for _, c := range []struct {
		msg    FrameMsg
		tenant string
		f      vidsim.Frame
	}{{first, tenant, f}, {second, tenant2, f2}} {
		want := FrameFromMsg(c.msg)
		if c.tenant != c.msg.Tenant || c.f.Index != want.Index || c.f.W != want.W || c.f.H != want.H || c.f.Condition != want.Condition {
			t.Fatalf("decoded %q %+v, want %q %+v", c.tenant, c.f, c.msg.Tenant, want)
		}
		for i := range want.Pixels {
			if c.f.Pixels[i] != want.Pixels[i] {
				t.Fatalf("tenant %s pixel %d: %v, want %v", c.tenant, i, c.f.Pixels[i], want.Pixels[i])
			}
		}
	}
}

// TestFrameDecodeAllocs pins the decode half of the per-frame budget: a
// warm connection's read and decode allocate the frame's pixel slice and
// nothing else, and the ACK nothing at all.
func TestFrameDecodeAllocs(t *testing.T) {
	wire := EncodeFrame(testFrameMsg())
	src := bytes.NewReader(nil)
	rd := msgReader{r: src, buf: make([]byte, connBufSize)}
	var dec frameDecoder
	ack := make([]byte, 0, ackSize)
	got := testing.AllocsPerRun(100, func() {
		src.Reset(wire)
		_, payload, err := rd.next()
		if err != nil {
			t.Fatal(err)
		}
		_, f, err := dec.decode(payload)
		if err != nil {
			t.Fatal(err)
		}
		ack = appendAck(ack[:0], Ack{Seq: uint64(f.Index)})
	})
	if got > 1 {
		t.Errorf("read + decode + ack allocate %.0f objects per frame, want 1 (the pixels)", got)
	}
	if !bytes.Equal(ack, EncodeAck(Ack{Seq: 7})) {
		t.Errorf("appendAck wrote % x, EncodeAck % x", ack, EncodeAck(Ack{Seq: 7}))
	}
}

// FuzzDecodeFrameMsg throws arbitrary bytes at the frame parser through
// both of its users: neither may panic, the wire message and the
// pipeline frame must agree — on error-or-not and the error's text, and
// on success on every field and every pixel bit, FrameFromMsg of the one
// being the other — and anything accepted must re-encode to a payload
// that decodes to the same message (parser and encoder agree on the
// format).
func FuzzDecodeFrameMsg(f *testing.F) {
	wire := EncodeFrame(testFrameMsg())
	valid := wire[HeaderSize:]
	f.Add(valid)
	for _, cut := range []int{0, 1, 5, 9, 17, len(valid) - 1} {
		if cut <= len(valid) {
			f.Add(valid[:cut])
		}
	}
	f.Add([]byte{0})
	f.Add(append([]byte{5, 'a', 'b', 'c', 'd', 'e'}, make([]byte, 13)...))
	nan := append([]byte(nil), valid...)
	copy(nan[len(nan)-8:], []byte{0x7f, 0xa0, 0, 1, 0xff, 0xc0, 0, 0}) // a signalling and a quiet NaN
	f.Add(nan)
	var dec frameDecoder // one for the run: string reuse is part of what is fuzzed
	f.Fuzz(func(t *testing.T, payload []byte) {
		m, err := DecodeFrameMsg(payload)
		tenant, wide, werr := dec.decode(payload)
		if (err == nil) != (werr == nil) || (err != nil && err.Error() != werr.Error()) {
			t.Fatalf("DecodeFrameMsg: %v; the wide decode: %v", err, werr)
		}
		if err != nil {
			return
		}
		if m.Tenant == "" || len(m.Tenant) > MaxTenant {
			t.Fatalf("accepted tenant %q", m.Tenant)
		}
		if m.W < 1 || m.H < 1 || m.W > MaxDim || m.H > MaxDim || len(m.Pixels) != m.W*m.H {
			t.Fatalf("accepted geometry %dx%d with %d pixels", m.W, m.H, len(m.Pixels))
		}
		if strings.Contains(m.Condition, "\x00") {
			// Conditions are free-form bytes on the wire; just exercise it.
			_ = m.Condition
		}
		ref := FrameFromMsg(m)
		if tenant != m.Tenant || wide.Index != ref.Index || wide.W != ref.W || wide.H != ref.H || wide.Condition != ref.Condition || len(wide.Pixels) != len(ref.Pixels) {
			t.Fatalf("the wide decode: tenant %q %dx%d #%d %q, %d pixels; FrameFromMsg(DecodeFrameMsg): %q %dx%d #%d %q, %d pixels",
				tenant, wide.W, wide.H, wide.Index, wide.Condition, len(wide.Pixels), m.Tenant, ref.W, ref.H, ref.Index, ref.Condition, len(ref.Pixels))
		}
		for i := range ref.Pixels {
			if math.Float64bits(wide.Pixels[i]) != math.Float64bits(ref.Pixels[i]) {
				t.Fatalf("pixel %d: the wide decode %x, FrameFromMsg(DecodeFrameMsg) %x", i, math.Float64bits(wide.Pixels[i]), math.Float64bits(ref.Pixels[i]))
			}
		}
		wire2 := EncodeFrame(m)
		m2, err := DecodeFrameMsg(wire2[HeaderSize:])
		if err != nil {
			t.Fatalf("re-encoded message failed to decode: %v", err)
		}
		if m2.Tenant != m.Tenant || m2.Seq != m.Seq || m2.W != m.W || m2.H != m.H || m2.Condition != m.Condition {
			t.Fatalf("re-encode changed the message: %+v vs %+v", m2, m)
		}
		for i := range m.Pixels {
			if math.Float32bits(m2.Pixels[i]) != math.Float32bits(m.Pixels[i]) {
				t.Fatalf("re-encode changed pixel %d", i)
			}
		}
	})
}

// FuzzMsgReader throws arbitrary streams at the buffered reader, through
// a small buffer and in arbitrary read sizes: whatever ReadMsg makes of
// the stream — messages, typed errors, where it stops — the reader makes
// too, and neither panics.
func FuzzMsgReader(f *testing.F) {
	frame, ack := EncodeFrame(testFrameMsg()), EncodeAck(Ack{Seq: 9})
	f.Add(append(append([]byte(nil), frame...), ack...), uint8(7))
	f.Add(append(append([]byte(nil), ack...), frame[:40]...), uint8(1))
	f.Add(frame[:HeaderSize], uint8(3))
	f.Add([]byte("VDIF"), uint8(0))
	f.Fuzz(func(t *testing.T, stream []byte, chunk uint8) {
		// A declared length the stream does not hold is allocated before it
		// is found missing (by ReadMsg as by the reader); keep the fuzzer
		// from spending its time on 64 MB of zeroes, at the stream's head at
		// least.
		if len(stream) >= 10 && binary.BigEndian.Uint32(stream[6:10]) > 1<<16 {
			t.Skip()
		}
		var chunks [][]byte
		for rest := stream; len(rest) > 0; {
			n := min(int(chunk)+1, len(rest))
			chunks = append(chunks, rest[:n])
			rest = rest[n:]
		}
		sameAsReadMsg(t, "fuzz", stream, &chunkReader{chunks: chunks}, 48)
	})
}
