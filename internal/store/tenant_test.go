package store

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"videodrift/internal/core"
	"videodrift/internal/forensics"
	"videodrift/internal/telemetry"
)

// parentShardState is ShardState as the builds before Tenant and Next
// wrote it; parentRecord and parentDelta are their checkpoint and delta
// records. Their checkpoints, -state-dirs and replication streams
// outlive the upgrade, and their standbys may be sent ours.
type parentShardState struct {
	Registry    []int
	Pipeline    core.PipelineSnapshot
	Forensics   forensics.RecorderState
	EventCounts []telemetry.KindCount
}

type parentRecord struct {
	CreatedUnixNano int64
	Frames          int64
	Gen, Epoch      uint64
	Entries         [][]byte
	EntryCRCs       []uint32
	Shards          []parentShardState
}

type parentDelta struct {
	BaseGen, Gen    uint64
	Epoch           uint64
	CreatedUnixNano int64
	Frames          int64
	BaseEntries     int
	BaseDigest      uint32
	NewEntries      [][]byte
	NewCRCs         []uint32
	Shards          []parentShardState
	BaseFrames      int
	BaseFrameDigest uint32
	Runs            []FrameRun
}

// regob gob-encodes v and decodes the bytes into out.
func regob(t *testing.T, v, out any) {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	if err := gob.NewDecoder(&buf).Decode(out); err != nil {
		t.Fatal(err)
	}
}

// parentEnvelope reseals payload, the gob record v followed by rest, as
// an envelope of kind: what a parent build wrote.
func parentEnvelope(t *testing.T, kind uint16, lenPrefix bool, v any, rest []byte) []byte {
	t.Helper()
	var rec bytes.Buffer
	if err := gob.NewEncoder(&rec).Encode(v); err != nil {
		t.Fatal(err)
	}
	env := make([]byte, headerSize)
	if lenPrefix {
		env = binary.LittleEndian.AppendUint32(env, uint32(rec.Len()))
	}
	env = append(append(env, rec.Bytes()...), rest...)
	sealEnvelope(env, kind)
	return env
}

// parentCheckpoint re-encodes a checkpoint envelope in the parent's shape.
func parentCheckpoint(t *testing.T, data []byte) []byte {
	t.Helper()
	payload, err := decodeEnvelope(data, kindCheckpoint)
	if err != nil {
		t.Fatal(err)
	}
	var rec parentRecord
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&rec); err != nil {
		t.Fatalf("a checkpoint with tenants does not decode under the parent's shape: %v", err)
	}
	return parentEnvelope(t, kindCheckpoint, false, rec, nil)
}

// parentDeltaWire re-encodes a delta envelope in the parent's shape: its
// gob record re-encoded, its raw frame section as it was.
func parentDeltaWire(t *testing.T, wire []byte) []byte {
	t.Helper()
	payload, err := decodeEnvelope(wire, kindDelta)
	if err != nil {
		t.Fatal(err)
	}
	n := binary.LittleEndian.Uint32(payload)
	var d parentDelta
	if err := gob.NewDecoder(bytes.NewReader(payload[4 : 4+n])).Decode(&d); err != nil {
		t.Fatalf("a delta with tenants does not decode under the parent's shape: %v", err)
	}
	return parentEnvelope(t, kindDelta, true, d, payload[4+n:])
}

// named gives every shard of cp a tenant and a stream position.
func named(cp *Checkpoint, base uint64) {
	cp.Shards = slices.Clone(cp.Shards)
	for k := range cp.Shards {
		cp.Shards[k].Tenant, cp.Shards[k].Next = fmt.Sprintf("cam-%d", k), base+uint64(k)
	}
}

// unnamed is shards as a parent build records them: no tenant fields.
func unnamed(shards []ShardState) []ShardState {
	out := slices.Clone(shards)
	for k := range out {
		out[k].Tenant, out[k].Next = "", 0
	}
	return out
}

// TestTenantFieldsAcrossUpgrade: ShardState carries the tenant table as
// two gob fields, with no Version bump. A checkpoint and a delta a
// parent build wrote decode and chain to shards with both fields zero —
// unnamed, as that build left every shard — while ours carry them; and
// what we write decodes under the parent's shape, everything but the
// tenant fields intact.
func TestTenantFieldsAcrossUpgrade(t *testing.T) {
	base := testCheckpoint(t)
	base.Gen = 1
	named(base, 100)
	next := nextGeneration(t, base, true)
	named(next, 150)

	modern, err := Encode(base)
	if err != nil {
		t.Fatal(err)
	}
	legacy := parentCheckpoint(t, modern)
	if bytes.Equal(legacy, modern) {
		t.Fatal("the parent-shape checkpoint is the new one: the test encodes nothing legacy")
	}
	want, err := Decode(modern)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want.Shards, base.Shards) {
		t.Fatal("the tenant table does not round-trip")
	}
	got, crcs, err := DecodeWithCRCs(legacy)
	if err != nil {
		t.Fatalf("Decode of a parent-shape checkpoint: %v", err)
	}
	if !reflect.DeepEqual(got.Shards, unnamed(want.Shards)) {
		t.Error("a parent-shape checkpoint's shards differ from ours beyond the tenant fields")
	}

	// A delta chains off the parent's checkpoint in either shape.
	d, _, err := DiffCheckpoints(got, crcs, next)
	if err != nil {
		t.Fatal(err)
	}
	wire, err := EncodeDelta(d)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		wire []byte
		want []ShardState
	}{
		{"ours", wire, next.Shards},
		{"the parent's", parentDeltaWire(t, wire), unnamed(next.Shards)},
	} {
		dd, err := DecodeDelta(tc.wire)
		if err != nil {
			t.Fatalf("%s delta: %v", tc.name, err)
		}
		applied, _, err := ApplyDelta(got, crcs, dd)
		if err != nil {
			t.Fatalf("%s delta over a parent-shape base: %v", tc.name, err)
		}
		for k, sh := range applied.Shards {
			if sh.Tenant != tc.want[k].Tenant || sh.Next != tc.want[k].Next {
				t.Errorf("%s delta: shard %d is %q at %d, want %q at %d", tc.name, k, sh.Tenant, sh.Next, tc.want[k].Tenant, tc.want[k].Next)
			}
		}
	}

	// The parent reads what we write: the same shards, less the names.
	payload, err := decodeEnvelope(modern, kindCheckpoint)
	if err != nil {
		t.Fatal(err)
	}
	var rec parentRecord
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&rec); err != nil {
		t.Fatal(err)
	}
	var back []ShardState
	regob(t, rec.Shards, &back)
	if !reflect.DeepEqual(back, unnamed(want.Shards)) {
		t.Error("our checkpoint, read under the parent's shape, lost more than the tenant fields")
	}
}
