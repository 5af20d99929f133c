// Package wirefix exercises wiresync: field parity between wire
// encoders and decoders, and checksum reachability.
package wirefix

import (
	"errors"
	"hash/crc32"
)

// Version is the toy protocol's version byte.
const Version = 7

var errBad = errors.New("wirefix: bad frame")

// header prepends the version byte and a payload CRC — the shared
// integrity envelope the encoders reach transitively.
func header(payload []byte) []byte {
	out := []byte{Version}
	return appendU32(out, crc32.ChecksumIEEE(payload))
}

func appendU32(b []byte, v uint32) []byte {
	return append(b, byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
}

func appendU64(b []byte, v uint64) []byte {
	return appendU32(appendU32(b, uint32(v>>32)), uint32(v))
}

func readU32(b []byte) uint32 {
	return uint32(b[0])<<24 | uint32(b[1])<<16 | uint32(b[2])<<8 | uint32(b[3])
}

func readU64(b []byte) uint64 {
	return uint64(readU32(b))<<32 | uint64(readU32(b[4:]))
}

// Ping is fully covered: every field crosses the wire both ways.
//
//driftlint:wire encode=EncodePing decode=DecodePing
type Ping struct {
	Seq  uint64
	Note string // want `field Note of wire message Ping is not referenced by its decode path`
}

func EncodePing(p Ping) []byte {
	payload := appendU64(nil, p.Seq)
	payload = append(payload, p.Note...)
	return append(header(payload), payload...)
}

// DecodePing deliberately drops Note: the parity check must catch the
// decoder falling behind the struct.
func DecodePing(payload []byte) (Ping, error) {
	if len(payload) < 8 {
		return Ping{}, errBad
	}
	return Ping{Seq: readU64(payload)}, nil
}

// Pong round-trips completely: no findings.
//
//driftlint:wire encode=EncodePong decode=DecodePong
type Pong struct {
	Seq uint64
	OK  bool
}

func EncodePong(p Pong) []byte {
	payload := appendU64(nil, p.Seq)
	if p.OK {
		payload = append(payload, 1)
	} else {
		payload = append(payload, 0)
	}
	return append(header(payload), payload...)
}

func DecodePong(payload []byte) (Pong, error) {
	if len(payload) != 9 {
		return Pong{}, errBad
	}
	return Pong{Seq: readU64(payload), OK: payload[8] != 0}, nil
}

// Raw's encoder skips the integrity envelope entirely.
//
//driftlint:wire encode=EncodeRaw decode=DecodeRaw
type Raw struct {
	N uint64
}

// EncodeRaw ships naked bytes: no CRC anywhere in its call graph.
func EncodeRaw(r Raw) []byte { // want `wire encoder EncodeRaw never computes a payload checksum`
	return appendU64(nil, r.N)
}

func DecodeRaw(payload []byte) (Raw, error) {
	if len(payload) != 8 {
		return Raw{}, errBad
	}
	return Raw{N: readU64(payload)}, nil
}

// Ghost's directive names a function that does not exist.
//
//driftlint:wire encode=EncodeGhost decode=DecodePing
type Ghost struct { // want `//driftlint:wire on Ghost names unknown encode function "EncodeGhost"`
	X int
}

// Stale's directive still carries the retired stream= list: there is
// one framing reader now and it is not this analyzer's to check.
//
//driftlint:wire encode=EncodePong decode=DecodePong stream=ReadFrame
type Stale struct { // want `malformed //driftlint:wire directive: unknown token "stream=ReadFrame"`
	X int
}

// Half's uncovered field is deliberately waived.
//
//driftlint:wire encode=EncodeHalf decode=DecodeHalf
type Half struct {
	A uint64
	//lint:allow wiresync fixture: field deliberately uncovered to prove suppression works
	B uint64
}

func EncodeHalf(h Half) []byte {
	payload := appendU64(appendU64(nil, h.A), h.B)
	return append(header(payload), payload...)
}

func DecodeHalf(payload []byte) (Half, error) {
	if len(payload) < 8 {
		return Half{}, errBad
	}
	return Half{A: readU64(payload)}, nil
}
