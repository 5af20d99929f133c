package store

import (
	"encoding/binary"
	"hash/crc32"
	"testing"
)

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
	// What a build from before pixel-space Σ left the entry wrote.
	legacy, _ := legacyEncode(f, testCheckpoint(f))
	f.Add(legacy)
	// And one from before the forensics mark queue: two replay bases.
	premark, _ := legacyRecorderCheckpoint(f, 117)
	f.Add(premark)
	// And one from before the recorder skipped what the stride skips:
	// dense frame lists with no At.
	dense, _, _, _ := denseGenerations(f)
	f.Add(dense)

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
	// The same delta as a pre-upgrade primary sends it: the new entry's
	// blob still carries pixel-space Σ.
	ld.NewEntries[0] = legacyBlob(f, lnext.Entries[2])
	ld.NewCRCs[0] = crc32.ChecksumIEEE(ld.NewEntries[0])
	legacyDelta, err := EncodeDelta(ld)
	if err != nil {
		f.Fatalf("encoding legacy delta: %v", err)
	}
	f.Add(legacyDelta)
	// A delta off a dense full: every frame a reference into it, the
	// stream frame of each in the shard state.
	_, dbase, dcrcs, dnext := denseGenerations(f)
	dd, _, err := DiffCheckpoints(dbase, dcrcs, dnext)
	if err != nil {
		f.Fatalf("diffing dense generations: %v", err)
	}
	denseDelta, err := EncodeDelta(dd)
	if err != nil {
		f.Fatalf("encoding dense delta: %v", err)
	}
	f.Add(denseDelta)

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
