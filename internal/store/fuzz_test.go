package store

import (
	"encoding/binary"
	"slices"
	"testing"

	"videodrift/internal/wire"
)

// previousEpoch returns an envelope rewritten to format v4, the epoch
// before this one's: a decoder must refuse it by version.
func previousEpoch(envelope []byte) []byte {
	b := append([]byte(nil), envelope...)
	b[4] = 4
	return b
}

// fuzzDecoder is the body both fuzz targets run, because a file and a
// replicated delta go through the one decoder. The contract under test:
// DecodeDelta and Decode each return a value or a typed error — never a
// panic, whatever the input — and a delta DecodeDelta accepts satisfies
// the structural invariants ApplyDelta relies on.
func fuzzDecoder(t *testing.T, data []byte) {
	if got, err := DecodeDelta(data); err == nil {
		if got == nil {
			t.Fatal("DecodeDelta returned nil delta with nil error")
		}
		if got.BaseEntries < 0 || len(got.NewCRCs) != len(got.NewEntries) {
			t.Fatalf("accepted inconsistent delta: base=%d crcs=%d entries=%d",
				got.BaseEntries, len(got.NewCRCs), len(got.NewEntries))
		}
		refs := got.BaseEntries + len(got.NewEntries)
		for si, sh := range got.Shards {
			for _, ref := range sh.Registry {
				if ref < 0 || ref >= refs {
					t.Fatalf("accepted shard %d with dangling entry ref %d of %d", si, ref, refs)
				}
			}
		}
		frames := uint64(got.BaseFrames) + uint64(len(got.NewFrames))
		for _, r := range got.Runs {
			if r.N == 0 || uint64(r.Ref)+uint64(r.N) > frames {
				t.Fatalf("accepted frame run %+v over %d frames", r, frames)
			}
		}
	}
	cp, err := Decode(data)
	if err == nil && cp == nil {
		t.Fatal("Decode returned nil checkpoint with nil error")
	}
}

// FuzzDecode runs fuzzDecoder from checkpoint files (and mutations of
// them): full, lean, framed, unfit, cut short and in the epoch before.
func FuzzDecode(f *testing.F) {
	valid, err := Encode(testCheckpoint(f))
	if err != nil {
		f.Fatalf("encoding seed checkpoint: %v", err)
	}
	f.Add(valid)
	f.Add([]byte{})
	f.Add([]byte("VDCK"))
	f.Add(valid[:wire.HeaderSize])
	// A structurally valid envelope wrapping garbage: recompute nothing,
	// let the payload CRC catch it — exercises the post-envelope path too.
	short := append([]byte(nil), valid[:wire.HeaderSize+64]...)
	binary.BigEndian.PutUint32(short[6:], 64)
	f.Add(short)
	// A supervised entry without an ensemble: an MSBI server's checkpoint.
	lean, err := Encode(leanCheckpoint(f))
	if err != nil {
		f.Fatalf("encoding lean seed checkpoint: %v", err)
	}
	f.Add(lean)
	// The format epoch before: a v4 header over a valid payload.
	f.Add(previousEpoch(valid))
	// Named shards, one holding a live recorder state: kept frames with
	// their stream positions, a mark and a retained declaration.
	fbase, _ := framedGenerations(f)
	fbase.Shards[0].Tenant, fbase.Shards[0].Next = "cam-0", 100
	framed, err := Encode(fbase)
	if err != nil {
		f.Fatalf("encoding framed seed checkpoint: %v", err)
	}
	f.Add(framed)
	// A shard deploying a registry slot it does not have: well formed,
	// refused by the structural check.
	bad := testCheckpoint(f)
	bad.Shards[1].Pipeline.Current = 3
	unfit, err := Encode(bad)
	if err != nil {
		f.Fatalf("encoding seed checkpoint: %v", err)
	}
	f.Add(unfit)

	f.Fuzz(fuzzDecoder)
}

// FuzzDecodeDelta runs fuzzDecoder from deltas off a real base (and
// mutations of them), which Decode refuses and DecodeDelta reads.
func FuzzDecodeDelta(f *testing.F) {
	base := testCheckpoint(f)
	base.Gen = 1
	crcs, err := EntryCRCs(base)
	if err != nil {
		f.Fatalf("fingerprinting seed checkpoint: %v", err)
	}
	delta := func(base *Checkpoint, crcs []uint32, next *Checkpoint) []byte {
		d, _, err := DiffCheckpoints(base, crcs, next)
		if err != nil {
			f.Fatalf("diffing seed generations: %v", err)
		}
		env, err := EncodeDelta(d)
		if err != nil {
			f.Fatalf("encoding seed delta: %v", err)
		}
		return env
	}
	valid := delta(base, crcs, nextGeneration(f, base, false))
	f.Add(valid)
	f.Add([]byte{})
	f.Add([]byte("VDCK"))
	f.Add(valid[:wire.HeaderSize])
	f.Add(valid[:len(valid)-7])
	full, _ := Encode(base)
	f.Add(full) // the delta from nothing
	// A delta with a frame table: references into the base's walk plus
	// new frame bodies in the raw section, whole and cut inside a body.
	fbase, fnext := framedGenerations(f)
	fcrcs, err := EntryCRCs(fbase)
	if err != nil {
		f.Fatalf("fingerprinting framed checkpoint: %v", err)
	}
	framed := delta(fbase, fcrcs, fnext)
	f.Add(framed)
	f.Add(framed[:len(framed)-testDim*4])
	// A delta that appends a supervised entry without an ensemble: an MSBI
	// primary's stream after a training; that delta in the format epoch
	// before; and a delta in which a tenant moved on and another arrived.
	lnext := leanCheckpoint(f)
	lnext.Gen = 2
	leanDelta := delta(base, crcs, lnext)
	f.Add(leanDelta)
	f.Add(previousEpoch(leanDelta))
	tnext := nextGeneration(f, base, false)
	tnext.Shards = slices.Clone(tnext.Shards)
	tnext.Shards[0].Tenant, tnext.Shards[0].Next = "cam-0", 150
	tnext.Shards[1].Tenant, tnext.Shards[1].Next = "cam-1", 7
	f.Add(delta(base, crcs, tnext))

	f.Fuzz(fuzzDecoder)
}
