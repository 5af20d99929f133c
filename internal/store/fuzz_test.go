package store

import (
	"encoding/binary"
	"slices"
	"testing"
)

// previousEpoch returns an envelope rewritten to format v2, the epoch
// before this one's: a decoder must refuse it by version.
func previousEpoch(envelope []byte) []byte {
	b := append([]byte(nil), envelope...)
	binary.LittleEndian.PutUint16(b[4:], 2)
	return b
}

// FuzzDecode feeds arbitrary (and mutated-valid) byte strings through the
// full decode path. The contract under test: Decode either returns a
// checkpoint or a typed error — it never panics, whatever the input.
func FuzzDecode(f *testing.F) {
	valid, err := Encode(testCheckpoint(f))
	if err != nil {
		f.Fatalf("encoding seed checkpoint: %v", err)
	}
	f.Add(valid)
	f.Add([]byte{})
	f.Add([]byte("VDCK"))
	f.Add(valid[:headerSize])
	// A structurally valid envelope wrapping garbage: recompute nothing,
	// let the payload CRC catch it — exercises the post-envelope path too.
	short := append([]byte(nil), valid[:headerSize+64]...)
	binary.LittleEndian.PutUint64(short[8:], 64)
	f.Add(short)
	// A supervised entry without an ensemble: an MSBI server's checkpoint.
	lean, err := Encode(leanCheckpoint(f))
	if err != nil {
		f.Fatalf("encoding lean seed checkpoint: %v", err)
	}
	f.Add(lean)
	// The format epoch before: a v2 header over a valid payload.
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

	f.Fuzz(func(t *testing.T, data []byte) {
		cp, err := Decode(data)
		if err == nil && cp == nil {
			t.Fatal("Decode returned nil checkpoint with nil error")
		}
	})
}

// FuzzDecodeDelta is FuzzDecode's delta sibling: arbitrary bytes in,
// a delta or a typed error out, never a panic — and anything accepted
// must satisfy the structural invariants ApplyDelta relies on.
func FuzzDecodeDelta(f *testing.F) {
	base := testCheckpoint(f)
	base.Gen = 1
	crcs, err := EntryCRCs(base)
	if err != nil {
		f.Fatalf("fingerprinting seed checkpoint: %v", err)
	}
	next := &Checkpoint{
		CreatedUnixNano: base.CreatedUnixNano + 1,
		Frames:          base.Frames + 50,
		Gen:             2,
		Entries:         base.Entries,
		Shards:          base.Shards,
	}
	d, _, err := DiffCheckpoints(base, crcs, next)
	if err != nil {
		f.Fatalf("diffing seed generations: %v", err)
	}
	valid, err := EncodeDelta(d)
	if err != nil {
		f.Fatalf("encoding seed delta: %v", err)
	}
	f.Add(valid)
	f.Add([]byte{})
	f.Add([]byte("VDCK"))
	f.Add(valid[:headerSize])
	f.Add(valid[:len(valid)-7])
	full, _ := Encode(base)
	f.Add(full) // wrong envelope kind
	// A delta with a frame table: references into the base's walk plus
	// new frame bodies in the raw section, whole and cut inside a body.
	fbase, fnext := framedGenerations(f)
	fcrcs, err := EntryCRCs(fbase)
	if err != nil {
		f.Fatalf("fingerprinting framed checkpoint: %v", err)
	}
	fd, _, err := DiffCheckpoints(fbase, fcrcs, fnext)
	if err != nil {
		f.Fatalf("diffing framed generations: %v", err)
	}
	framed, err := EncodeDelta(fd)
	if err != nil {
		f.Fatalf("encoding framed delta: %v", err)
	}
	f.Add(framed)
	f.Add(framed[:len(framed)-testDim*4])
	// A delta that appends a supervised entry without an ensemble: an MSBI
	// primary's stream after a training.
	lnext := leanCheckpoint(f)
	lnext.Gen = 2
	ld, _, err := DiffCheckpoints(base, crcs, lnext)
	if err != nil {
		f.Fatalf("diffing lean generations: %v", err)
	}
	leanDelta, err := EncodeDelta(ld)
	if err != nil {
		f.Fatalf("encoding lean delta: %v", err)
	}
	f.Add(leanDelta)
	// The lean delta in the format epoch before, and a delta in which a
	// tenant moved on and another arrived.
	f.Add(previousEpoch(leanDelta))
	tnext := nextGeneration(f, base, false)
	tnext.Shards = slices.Clone(tnext.Shards)
	tnext.Shards[0].Tenant, tnext.Shards[0].Next = "cam-0", 150
	tnext.Shards[1].Tenant, tnext.Shards[1].Next = "cam-1", 7
	td, _, err := DiffCheckpoints(base, crcs, tnext)
	if err != nil {
		f.Fatalf("diffing named generations: %v", err)
	}
	tenantDelta, err := EncodeDelta(td)
	if err != nil {
		f.Fatalf("encoding named delta: %v", err)
	}
	f.Add(tenantDelta)

	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := DecodeDelta(data)
		if err != nil {
			return
		}
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
	})
}
