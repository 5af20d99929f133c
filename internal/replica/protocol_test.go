package replica

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"io"
	"testing"
)

func TestProtocolRoundTrips(t *testing.T) {
	checkMsg := func(name string, wire []byte, wantType uint8) []byte {
		t.Helper()
		msgType, payload, err := ReadMsg(bytes.NewReader(wire))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if msgType != wantType {
			t.Fatalf("%s: type %d, want %d", name, msgType, wantType)
		}
		return payload
	}

	h := Hello{Epoch: 7, Gen: 42}
	if got, err := DecodeHello(checkMsg("hello", EncodeHello(h), MsgHello)); err != nil || got != h {
		t.Fatalf("hello round trip: %+v, %v", got, err)
	}

	st := State{Epoch: 7, Seq: 3, Gen: 43, BaseGen: 42, Payload: []byte("envelope bytes")}
	got, err := DecodeState(checkMsg("delta", EncodeState(MsgDelta, st), MsgDelta))
	if err != nil {
		t.Fatalf("state round trip: %v", err)
	}
	if got.Epoch != st.Epoch || got.Seq != st.Seq || got.Gen != st.Gen || got.BaseGen != st.BaseGen || !bytes.Equal(got.Payload, st.Payload) {
		t.Fatalf("state round trip: %+v, want %+v", got, st)
	}
	// Fulls share the State shape under a different message type.
	checkMsg("full", EncodeState(MsgFull, st), MsgFull)

	a := Applied{Gen: 43}
	if got, err := DecodeApplied(checkMsg("applied", EncodeApplied(a), MsgApplied)); err != nil || got != a {
		t.Fatalf("applied round trip: %+v, %v", got, err)
	}

	f := Fenced{Epoch: 9}
	if got, err := DecodeFenced(checkMsg("fenced", EncodeFenced(f), MsgFenced)); err != nil || got != f {
		t.Fatalf("fenced round trip: %+v, %v", got, err)
	}
}

// TestGoldenBytes holds one message of each type to the bytes the build
// before internal/wire emitted for it (recorded at that commit), but for
// the version byte: moving the header and the CRC into a shared layer
// changed nothing on the wire, and VDRP v2 and v3 changed the version
// alone.
func TestGoldenBytes(t *testing.T) {
	st := State{Epoch: 7, Seq: 3, Gen: 43, BaseGen: 42, Payload: []byte("envelope bytes")}
	for name, c := range map[string]struct {
		got  []byte
		want string
	}{
		"hello":   {EncodeHello(Hello{Epoch: 7, Gen: 42}), "564452500301000000105361ef4a0000000000000007000000000000002a"},
		"full":    {EncodeState(MsgFull, st), "56445250030200000032ba149c2900000000000000070000000000000003000000000000002b000000000000002a0000000e656e76656c6f7065206279746573"},
		"delta":   {EncodeState(MsgDelta, st), "56445250030300000032ba149c2900000000000000070000000000000003000000000000002b000000000000002a0000000e656e76656c6f7065206279746573"},
		"applied": {EncodeApplied(Applied{Gen: 43}), "56445250030400000008c99e2629000000000000002b"},
		"fenced":  {EncodeFenced(Fenced{Epoch: 9}), "564452500305000000081cfe67cd0000000000000009"},
	} {
		if hex.EncodeToString(c.got) != c.want {
			t.Errorf("%s: encodes to %x, the recorded bytes are %s", name, c.got, c.want)
		}
	}
}

func TestReadMsgRejectsDamage(t *testing.T) {
	valid := EncodeState(MsgDelta, State{Epoch: 1, Seq: 1, Gen: 2, BaseGen: 1, Payload: []byte("payload")})

	reject := func(name string, wire []byte, want error) {
		t.Helper()
		_, _, err := ReadMsg(bytes.NewReader(wire))
		if !errors.Is(err, want) {
			t.Fatalf("%s: err = %v, want %v", name, err, want)
		}
	}

	badMagic := append([]byte(nil), valid...)
	badMagic[0] ^= 0xff
	reject("bad magic", badMagic, ErrBadMagic)

	for _, v := range []uint8{Version - 1, Version + 1} { // the epochs either side
		badVersion := append([]byte(nil), valid...)
		badVersion[4] = v
		var verr *VersionError
		if _, _, err := ReadMsg(bytes.NewReader(badVersion)); !errors.As(err, &verr) || *verr != (VersionError{Got: v, Want: Version}) {
			t.Fatalf("version %d: err = %v", v, err)
		}
	}

	reject("truncated header", valid[:HeaderSize-1], ErrTruncated)
	reject("truncated payload", valid[:len(valid)-3], ErrTruncated)

	badCRC := append([]byte(nil), valid...)
	badCRC[len(badCRC)-1] ^= 0xff
	reject("payload corruption", badCRC, ErrChecksum)

	oversized := append([]byte(nil), valid...)
	binary.BigEndian.PutUint32(oversized[6:10], MaxPayload+1)
	reject("oversized declaration", oversized, ErrOversized)

	// Clean EOF between messages is io.EOF, not a damage error.
	if _, _, err := ReadMsg(bytes.NewReader(nil)); !errors.Is(err, io.EOF) {
		t.Fatalf("empty stream: err = %v, want io.EOF", err)
	}
}

func TestDecodeStateRejectsLengthLies(t *testing.T) {
	wire := EncodeState(MsgDelta, State{Epoch: 1, Seq: 1, Gen: 2, BaseGen: 1, Payload: []byte("abcdef")})
	_, payload, err := ReadMsg(bytes.NewReader(wire))
	if err != nil {
		t.Fatalf("read: %v", err)
	}

	if _, err := DecodeState(payload[:20]); !errors.Is(err, ErrTruncated) {
		t.Fatalf("short prefix: %v, want ErrTruncated", err)
	}
	lied := append([]byte(nil), payload...)
	binary.BigEndian.PutUint32(lied[32:36], uint32(len(payload))) // declares more than carried
	if _, err := DecodeState(lied); !errors.Is(err, ErrTruncated) {
		t.Fatalf("length lie: %v, want ErrTruncated", err)
	}
}

func TestDecodeMsg(t *testing.T) {
	wire := EncodeApplied(Applied{Gen: 11})
	msgType, payload, err := DecodeMsg(wire)
	if err != nil || msgType != MsgApplied {
		t.Fatalf("decode: type %d, %v", msgType, err)
	}
	if a, _ := DecodeApplied(payload); a.Gen != 11 {
		t.Fatalf("gen %d, want 11", a.Gen)
	}
	if _, _, err := DecodeMsg(wire[:4]); !errors.Is(err, ErrTruncated) {
		t.Fatalf("short buffer: %v, want ErrTruncated", err)
	}
}
