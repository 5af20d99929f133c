package ingest

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"math"
	"testing"

	"videodrift/internal/vidsim"
	"videodrift/internal/wire"
)

// testFrameMsg builds a small valid frame message.
func testFrameMsg() FrameMsg {
	px := make([]float32, 4*3)
	for i := range px {
		px[i] = float32(i) * 0.125
	}
	return FrameMsg{Tenant: "cam-0", Seq: 7, W: 4, H: 3, Pixels: px}
}

// TestGoldenBytes holds one message of each type to the bytes the build
// before internal/wire emitted for it (recorded at that commit), but for
// the version byte: moving the header and the CRC into a shared layer
// changed nothing on the wire, VDIF v2 changed the version and, in the
// ack, dropped the duplicate flag (its CRC with it), and VDIF v3 dropped
// the frame's condition label and the nack's retry hint. The sync, which
// came later, is held to the bytes it was introduced with; a client seals
// frames straight from a vidsim frame, and those are the frame message's
// bytes too.
func TestGoldenBytes(t *testing.T) {
	const frame = "56444946030100000046551d81060563616d2d300000000000000007000400030000000c000000003e0000003e8000003ec000003f0000003f2000003f4000003f6000003f8000003f9000003fa000003fb00000"
	m := testFrameMsg()
	sealed := appendFrame([]byte("prefix"), m.Tenant, m.Seq, m.W, m.H, FrameFromMsg(m).Pixels)[len("prefix"):]
	for name, c := range map[string]struct {
		got  []byte
		want string
	}{
		"frame":  {EncodeFrame(m), frame},
		"sealed": {sealed, frame},
		"ack":    {EncodeAck(Ack{Seq: 1 << 40}), "56444946030200000008ae7e0ccc0000010000000000"},
		"nack":   {EncodeNack(Nack{Seq: 12, Code: NackTenantLimit, Reason: "fleet at max tenants (64)"}), "56444946030300000024614e75c5000000000000000c030019666c656574206174206d61782074656e616e74732028363429"},
		"sync":   {EncodeSync(Sync{Tenant: "cam-0", Seq: 7}), "5644494603040000000ec46087730563616d2d300000000000000007"},
	} {
		if hex.EncodeToString(c.got) != c.want {
			t.Errorf("%s: encodes to %x, the recorded bytes are %s", name, c.got, c.want)
		}
	}
}

// TestMessageSizes pins what a frame and a nack carry: a frame is its
// tenant, seq, geometry and pixels, a nack its seq, code and reason, and
// not a byte more.
func TestMessageSizes(t *testing.T) {
	m := testFrameMsg()
	if got, want := len(EncodeFrame(m)), HeaderSize+1+len(m.Tenant)+8+2+2+4+4*len(m.Pixels); got != want {
		t.Errorf("a frame encodes to %d bytes, want %d", got, want)
	}
	n := Nack{Seq: 12, Code: NackTenantLimit, Reason: "fleet at max tenants (64)"}
	if got, want := len(EncodeNack(n)), HeaderSize+8+1+2+len(n.Reason); got != want {
		t.Errorf("a nack encodes to %d bytes, want %d", got, want)
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
	if got.Tenant != m.Tenant || got.Seq != m.Seq || got.W != m.W || got.H != m.H {
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
	for _, a := range []Ack{{Seq: 0}, {Seq: 1 << 40}} {
		typ, payload, err := DecodeMsg(EncodeAck(a))
		if err != nil || typ != MsgAck {
			t.Fatalf("ack %+v: type %d err %v", a, typ, err)
		}
		got, err := DecodeAck(payload)
		if err != nil || got != a {
			t.Fatalf("ack round trip %+v -> %+v (%v)", a, got, err)
		}
	}
	n := Nack{Seq: 12, Code: NackTenantLimit, Reason: "fleet at max tenants (64)"}
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
	s := Sync{Tenant: "cam-0", Seq: 1 << 40}
	typ, payload, err = DecodeMsg(EncodeSync(s))
	if err != nil || typ != MsgSync {
		t.Fatalf("sync: type %d err %v", typ, err)
	}
	if got, err := DecodeSync(payload); err != nil || got != s {
		t.Fatalf("sync round trip %+v -> %+v (%v)", s, got, err)
	}
	for _, c := range []struct {
		payload []byte
		want    error
	}{
		{nil, ErrTruncated},
		{payload[:len(payload)-1], ErrTruncated},
		{append([]byte{0}, payload[1:]...), ErrMalformed},
		{append([]byte{MaxTenant + 1}, payload[1:]...), ErrOversized},
	} {
		if _, err := DecodeSync(c.payload); !errors.Is(err, c.want) {
			t.Errorf("DecodeSync(% x): %v, want %v", c.payload, err, c.want)
		}
	}
}

// TestFrameQuantization pins the float32 wire quantization:
// FrameFromMsg(MsgFromFrame(f)) is the float32-rounded image of f, and
// a second trip is the identity (quantization is idempotent — the
// loopback determinism contract depends on this).
func TestFrameQuantization(t *testing.T) {
	f := vidsim.GenerateTrainingStride(vidsim.Day(), 8, 8, 1, 1, 99)[0]
	q := FrameFromMsg(MsgFromFrame("t", 5, f))
	if q.Index != 5 || q.W != f.W || q.H != f.H || q.Condition != "" || q.Truth != nil {
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
	// npix is after tenant(1+5) + seq(8) + dims(4).
	binary.BigEndian.PutUint32(wrongN[18:22], 5)
	reject("pixel count vs geometry", wrongN, ErrMalformed)
}

// TestFrameDecoderDoesNotAliasTheBuffer pins what "straight out of the
// read buffer" must not mean: a decoded frame holds no reference to the
// payload it came from, so the next message overwriting the buffer leaves
// the queued frame — pixels and tenant — as it was.
func TestFrameDecoderDoesNotAliasTheBuffer(t *testing.T) {
	first, second := testFrameMsg(), testFrameMsg()
	second.Tenant, second.Seq = "cam-1", 8
	for i := range second.Pixels {
		second.Pixels[i] = -1
	}
	rd := vdif.NewReader(bytes.NewReader(append(EncodeFrame(first), EncodeFrame(second)...)), 128)
	var dec frameDecoder
	_, payload, err := rd.Next()
	if err != nil {
		t.Fatal(err)
	}
	tenant, f, err := dec.decode(payload)
	if err != nil {
		t.Fatal(err)
	}
	if _, payload, err = rd.Next(); err != nil {
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
		if c.tenant != c.msg.Tenant || c.f.Index != want.Index || c.f.W != want.W || c.f.H != want.H {
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
	msg := EncodeFrame(testFrameMsg())
	src := bytes.NewReader(nil)
	rd := vdif.NewReader(src, wire.ConnBufSize)
	var dec frameDecoder
	ack := make([]byte, 0, ackSize)
	got := testing.AllocsPerRun(100, func() {
		src.Reset(msg)
		_, payload, err := rd.Next()
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
		ref := FrameFromMsg(m)
		if tenant != m.Tenant || wide.Index != ref.Index || wide.W != ref.W || wide.H != ref.H || len(wide.Pixels) != len(ref.Pixels) {
			t.Fatalf("the wide decode: tenant %q %dx%d #%d, %d pixels; FrameFromMsg(DecodeFrameMsg): %q %dx%d #%d, %d pixels",
				tenant, wide.W, wide.H, wide.Index, len(wide.Pixels), m.Tenant, ref.W, ref.H, ref.Index, len(ref.Pixels))
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
		if m2.Tenant != m.Tenant || m2.Seq != m.Seq || m2.W != m.W || m2.H != m.H {
			t.Fatalf("re-encode changed the message: %+v vs %+v", m2, m)
		}
		for i := range m.Pixels {
			if math.Float32bits(m2.Pixels[i]) != math.Float32bits(m.Pixels[i]) {
				t.Fatalf("re-encode changed pixel %d", i)
			}
		}
	})
}
