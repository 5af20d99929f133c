package store

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"slices"
	"sort"

	"videodrift/internal/core"
	"videodrift/internal/tensor"
	"videodrift/internal/vidsim"
	"videodrift/internal/wire"
)

// ErrDeltaBase reports a delta that does not chain off the checkpoint
// it was applied to: the base generation, entry table or frame walk
// disagrees. Replication standbys treat it as a desync and resync from
// a full snapshot.
var ErrDeltaBase = errors.New("store: delta base mismatch")

// Delta is the diff between two consecutive checkpoint generations —
// and, from the empty checkpoint, a checkpoint file's whole payload. It
// ships what a generation added and references everything else in the
// base:
//
//   - Model entries are immutable once provisioned, so the diff carries
//     only the entry blobs appended since the base.
//   - Frames are immutable once held (see vidsim.Held) and make up
//     nearly all of a shard's runtime bytes — the forensics pre-roll,
//     the selection buffer, the frames of every retained declaration. A
//     frame the base already holds travels as a reference into the
//     base's frame walk; only frames first seen in this generation
//     travel as bodies.
//   - The rest of the shard runtime (martingale, RNG positions, counters,
//     declaration evidence) is kilobytes and travels whole.
//
// Generation numbers order the stream and measure lag; BaseDigest and
// BaseFrameDigest are the correctness check that the base is the one the
// references were taken against.
//
//driftlint:snapshot encode=appendDelta,Differ.Diff decode=DecodeDelta,ApplyDelta,Delta.buildFrames
type Delta struct {
	// BaseGen is the generation this delta applies on; Gen is the
	// generation the application produces.
	BaseGen, Gen uint64
	// Epoch is the producing primary's fencing epoch.
	Epoch uint64
	// CreatedUnixNano and Frames mirror the target checkpoint's stamps.
	CreatedUnixNano int64
	Frames          int64
	// BaseEntries is the length of the base's entry table; BaseDigest is
	// a CRC-32 over the base's per-entry CRCs (little-endian
	// concatenation). Together they pin the exact bytes the delta
	// extends.
	BaseEntries int
	BaseDigest  uint32
	// NewEntries are the encoded model blobs appended since the base,
	// each with its own CRC.
	NewEntries [][]byte
	NewCRCs    []uint32
	// Shards is the per-shard runtime state at Gen with every frame list
	// (walkFrameLists) emptied; Runs rebuild them.
	Shards []ShardState
	// BaseFrames is the length of the base's frame walk and
	// BaseFrameDigest a CRC-32 over the walked frames' stream indices and
	// pixel counts: the frame-side twin of BaseEntries/BaseDigest.
	BaseFrames      int
	BaseFrameDigest uint32
	// Runs lists, in walk order of Shards, the frames of every non-empty
	// frame list as runs of consecutive references.
	Runs []FrameRun
	// NewFrames are the frames first seen in this generation, each once
	// however many lists (or shards) hold it. On the wire they follow the
	// gob record as raw little-endian blocks.
	NewFrames []vidsim.Held
}

// FrameRun is N consecutive frame references making up (part of) one
// frame list. A reference below Delta.BaseFrames is a position in the
// base's frame walk; one at or above it is BaseFrames plus an index into
// Delta.NewFrames. A run never straddles the two.
type FrameRun struct {
	List uint32 // ordinal of the frame list in the walk of Delta.Shards
	Ref  uint32 // first reference of the run
	N    uint32 // frames in the run (≥ 1)
}

// walkFrameLists calls fn with a pointer to every frame list the shards
// hold, in the canonical order frame references count positions in:
// shard by shard, the selection buffer, the forensics pre-roll, the
// marks, then each retained declaration's replay base and frames.
// TestWalkCoversEveryFrameList fails when a frame list is added to the
// shard state and not here.
func walkFrameLists(shards []ShardState, fn func(list *[]vidsim.Held)) {
	for si := range shards {
		sh := &shards[si]
		fn(&sh.Pipeline.Buffer)
		fn(&sh.Forensics.Ring)
		for mi := range sh.Forensics.Marks {
			fn(&sh.Forensics.Marks[mi].Snap.Buffer)
		}
		for di := range sh.Forensics.Declarations {
			d := &sh.Forensics.Declarations[di]
			fn(&d.Base.Buffer)
			fn(&d.Frames)
		}
	}
}

// cloneShards copies the shard states down to the structs that own a
// frame list, so the copy's lists can be emptied or rebuilt without
// touching the source. Everything else stays shared.
func cloneShards(shards []ShardState) []ShardState {
	out := slices.Clone(shards)
	for i := range out {
		out[i].Forensics.Marks = slices.Clone(out[i].Forensics.Marks)
		out[i].Forensics.Declarations = slices.Clone(out[i].Forensics.Declarations)
	}
	return out
}

// sameFrame reports whether two headers over one pixel array describe
// the same frame. Frames are identified by their pixel arrays
// (vidsim.Held.ID): held frames are immutable and every list holding a
// frame holds a copy of the header over the same array, so while both
// captures are alive equal IDs mean the same pixels, and this settles
// the header.
func sameFrame(a, b *vidsim.Held) bool {
	return a.Index == b.Index && a.W == b.W && a.H == b.H && a.Len() == b.Len()
}

// frameDigest folds one walked frame into the base frame digest. b is 16
// bytes of scratch, one buffer a walk: crc32.Update calls through a
// function value, so an array declared here would escape, once a frame.
func frameDigest(crc uint32, f *vidsim.Held, b []byte) uint32 {
	binary.LittleEndian.PutUint64(b[0:8], uint64(f.Index))
	binary.LittleEndian.PutUint64(b[8:16], uint64(f.Len()))
	return crc32.Update(crc, crc32.IEEETable, b[:16])
}

// digestCRCs collapses a per-entry CRC list into the single base
// digest a delta carries.
func digestCRCs(crcs []uint32) uint32 {
	buf := make([]byte, 4*len(crcs))
	for i, c := range crcs {
		binary.LittleEndian.PutUint32(buf[4*i:], c)
	}
	return crc32.ChecksumIEEE(buf)
}

// EntryCRCs encodes each entry of cp and returns the per-entry CRCs —
// what DiffCheckpoints and ApplyDelta accept as the base fingerprint.
// Callers that encoded or decoded the checkpoint through
// EncodeWithCRCs/DecodeWithCRCs already hold them and skip this.
func EntryCRCs(cp *Checkpoint) ([]uint32, error) {
	crcs := make([]uint32, len(cp.Entries))
	for i, e := range cp.Entries {
		blob, err := encodeEntry(e)
		if err != nil {
			return nil, err
		}
		crcs[i] = crc32.ChecksumIEEE(blob)
	}
	return crcs, nil
}

// baseFrame is where the base's walk first met a frame.
type baseFrame struct {
	pos uint32
	hdr *vidsim.Held
}

// Differ builds deltas. It carries no state from one Diff to the next,
// only the two pointer indexes a diff fills, so a caller that diffs
// every cycle (the replication primary) allocates them once instead of
// once per cycle. The zero value is ready to use; a Differ is not safe
// for concurrent use.
type Differ struct {
	base  map[vidsim.HeldID]baseFrame // pixel array → first position in the base's walk
	fresh map[vidsim.HeldID]uint32    // pixel array → index into the delta's NewFrames
}

// DiffCheckpoints builds the delta that turns base into next, and
// returns next's per-entry CRCs for the following diff. baseCRCs must
// be base's entry fingerprint (from EncodeWithCRCs, DecodeWithCRCs,
// EntryCRCs, or a previous Diff). It returns ErrDeltaBase when next
// does not extend base — a shrunken or rewritten entry table — in
// which case the caller falls back to a full snapshot.
//
// Frames are matched by pixel-array identity, which is sound only
// while base is still alive (no live frame can then reuse an address
// base holds) and nothing has written a frame's pixels since it was
// held — the invariant stated on vidsim.Held.
func DiffCheckpoints(base *Checkpoint, baseCRCs []uint32, next *Checkpoint) (*Delta, []uint32, error) {
	return new(Differ).Diff(base, baseCRCs, next)
}

// Diff is DiffCheckpoints on the receiver's reusable indexes.
func (df *Differ) Diff(base *Checkpoint, baseCRCs []uint32, next *Checkpoint) (*Delta, []uint32, error) {
	if len(baseCRCs) != len(base.Entries) {
		return nil, nil, fmt.Errorf("store: %d base CRCs for %d entries", len(baseCRCs), len(base.Entries))
	}
	if len(next.Entries) < len(base.Entries) {
		return nil, nil, fmt.Errorf("%w: entry table shrank from %d to %d", ErrDeltaBase, len(base.Entries), len(next.Entries))
	}
	nextCRCs := make([]uint32, len(next.Entries))
	d := &Delta{
		BaseGen:         base.Gen,
		Gen:             next.Gen,
		Epoch:           next.Epoch,
		CreatedUnixNano: next.CreatedUnixNano,
		Frames:          next.Frames,
		BaseEntries:     len(base.Entries),
		BaseDigest:      digestCRCs(baseCRCs),
	}
	for i, e := range next.Entries {
		if i < len(base.Entries) {
			// The shared prefix: entries are immutable and shared by
			// pointer across captures, so pointer equality proves the
			// blob is unchanged without re-encoding megabytes of model.
			if e == base.Entries[i] {
				nextCRCs[i] = baseCRCs[i]
				continue
			}
			blob, err := encodeEntry(e)
			if err != nil {
				return nil, nil, err
			}
			nextCRCs[i] = crc32.ChecksumIEEE(blob)
			if nextCRCs[i] != baseCRCs[i] {
				return nil, nil, fmt.Errorf("%w: entry %d rewritten", ErrDeltaBase, i)
			}
			continue
		}
		blob, err := encodeEntry(e)
		if err != nil {
			return nil, nil, err
		}
		nextCRCs[i] = crc32.ChecksumIEEE(blob)
		d.NewEntries = append(d.NewEntries, blob)
		d.NewCRCs = append(d.NewCRCs, nextCRCs[i])
	}
	for si, sh := range next.Shards {
		for _, ref := range sh.Registry {
			if ref < 0 || ref >= len(next.Entries) {
				return nil, nil, fmt.Errorf("store: shard %d references entry %d of %d", si, ref, len(next.Entries))
			}
		}
	}

	// Index the base's walk by pixel array, first position wins: lists
	// that share frames (the pre-roll and the declaration that froze it,
	// two shards fed one stream) then resolve to the same consecutive
	// positions, which is what keeps the runs long.
	if df.base == nil {
		df.base, df.fresh = map[vidsim.HeldID]baseFrame{}, map[vidsim.HeldID]uint32{}
	}
	// Emptied on the way out, not on the way in: a filled index would pin
	// the base capture's frames until the next diff.
	defer func() {
		clear(df.base)
		clear(df.fresh)
	}()
	scratch := make([]byte, 16)
	walkFrameLists(base.Shards, func(list *[]vidsim.Held) {
		for i := range *list {
			f := &(*list)[i]
			if key := f.ID(); key != (vidsim.HeldID{}) {
				if _, seen := df.base[key]; !seen {
					df.base[key] = baseFrame{pos: uint32(d.BaseFrames), hdr: f}
				}
			}
			d.BaseFrameDigest = frameDigest(d.BaseFrameDigest, f, scratch)
			d.BaseFrames++
		}
	})

	listNo := uint32(0)
	walkFrameLists(next.Shards, func(list *[]vidsim.Held) {
		open := false // whether the last run belongs to this list
		for i := range *list {
			f := &(*list)[i]
			ref, known := uint32(0), false
			key := f.ID()
			if key != (vidsim.HeldID{}) {
				if b, ok := df.base[key]; ok && sameFrame(b.hdr, f) {
					ref, known = b.pos, true
				} else if n, ok := df.fresh[key]; ok && sameFrame(&d.NewFrames[n], f) {
					ref, known = uint32(d.BaseFrames)+n, true
				}
			}
			if !known {
				ref = uint32(d.BaseFrames + len(d.NewFrames))
				if key != (vidsim.HeldID{}) {
					df.fresh[key] = uint32(len(d.NewFrames))
				}
				d.NewFrames = append(d.NewFrames, *f)
			}
			if open {
				last := &d.Runs[len(d.Runs)-1]
				// Extend the run unless it would cross from base positions
				// into new-frame indices.
				if ref == last.Ref+last.N && ref != uint32(d.BaseFrames) {
					last.N++
					continue
				}
			}
			d.Runs = append(d.Runs, FrameRun{List: listNo, Ref: ref, N: 1})
			open = true
		}
		listNo++
	})
	d.Shards = cloneShards(next.Shards)
	walkFrameLists(d.Shards, func(list *[]vidsim.Held) { *list = nil })
	return d, nextCRCs, nil
}

// check validates everything about a delta that does not need its base:
// what EncodeDelta refuses to write and DecodeDelta refuses to return.
func (d *Delta) check() error {
	if d.BaseEntries < 0 {
		return fmt.Errorf("store: delta claims %d base entries", d.BaseEntries)
	}
	if len(d.NewCRCs) != len(d.NewEntries) {
		return fmt.Errorf("store: delta has %d entry checksums for %d entries", len(d.NewCRCs), len(d.NewEntries))
	}
	refs := d.BaseEntries + len(d.NewEntries)
	for si, sh := range d.Shards {
		for _, ref := range sh.Registry {
			if ref < 0 || ref >= refs {
				return fmt.Errorf("store: delta shard %d references entry %d of %d", si, ref, refs)
			}
		}
		if cur := sh.Pipeline.Current; cur < 0 || cur >= len(sh.Registry) {
			return fmt.Errorf("store: delta shard %d deploys registry slot %d of %d", si, cur, len(sh.Registry))
		}
	}
	if d.BaseFrames < 0 {
		return fmt.Errorf("store: delta claims %d base frames", d.BaseFrames)
	}
	lists, inline := 0, false
	walkFrameLists(d.Shards, func(list *[]vidsim.Held) {
		lists++
		inline = inline || len(*list) > 0
	})
	if inline {
		return errors.New("store: delta shard state carries frames inline; frames travel as runs (build deltas with DiffCheckpoints)")
	}
	base, fresh := uint64(d.BaseFrames), uint64(len(d.NewFrames))
	for i, r := range d.Runs {
		if uint64(r.List) >= uint64(lists) || (i > 0 && r.List < d.Runs[i-1].List) {
			return fmt.Errorf("store: delta frame run %d names list %d of %d out of order", i, r.List, lists)
		}
		end := uint64(r.Ref) + uint64(r.N)
		inBase := end <= base
		inFresh := uint64(r.Ref) >= base && end <= base+fresh
		if r.N == 0 || !(inBase || inFresh) {
			// Typed as a base mismatch so a standby answers it the way it
			// answers any reference it cannot satisfy: resync from a full.
			return fmt.Errorf("%w: frame run %d references [%d,%d) of %d base + %d new frames", ErrDeltaBase, i, r.Ref, end, base, fresh)
		}
	}
	return nil
}

// ApplyDelta verifies d against base and produces the target
// checkpoint plus its per-entry CRCs. baseCRCs may be nil, in which
// case the fingerprint is recomputed via EntryCRCs (a re-encode —
// replication paths pass the CRCs they already hold instead). It
// returns ErrDeltaBase when the delta does not chain off base. The
// result shares base's model entries and the pixel arrays of every
// frame it references — nothing the base already held is copied — so
// base must be treated as immutable from here on, as checkpoints are.
func ApplyDelta(base *Checkpoint, baseCRCs []uint32, d *Delta) (*Checkpoint, []uint32, error) {
	if baseCRCs == nil {
		var err error
		if baseCRCs, err = EntryCRCs(base); err != nil {
			return nil, nil, err
		}
	}
	if d.BaseGen != base.Gen {
		return nil, nil, fmt.Errorf("%w: delta chains off generation %d, base is %d", ErrDeltaBase, d.BaseGen, base.Gen)
	}
	if d.BaseEntries != len(base.Entries) {
		return nil, nil, fmt.Errorf("%w: delta expects %d base entries, base has %d", ErrDeltaBase, d.BaseEntries, len(base.Entries))
	}
	if got := digestCRCs(baseCRCs); got != d.BaseDigest {
		return nil, nil, fmt.Errorf("%w: base digest %08x, delta expects %08x", ErrDeltaBase, got, d.BaseDigest)
	}
	if err := d.check(); err != nil {
		return nil, nil, err
	}

	next := &Checkpoint{
		CreatedUnixNano: d.CreatedUnixNano,
		Frames:          d.Frames,
		Gen:             d.Gen,
		Epoch:           d.Epoch,
		Entries:         make([]*core.ModelEntry, 0, len(base.Entries)+len(d.NewEntries)),
		Shards:          cloneShards(d.Shards),
	}
	if err := d.buildFrames(base.Shards, next.Shards); err != nil {
		return nil, nil, err
	}

	next.Entries = append(next.Entries, base.Entries...)
	nextCRCs := make([]uint32, 0, len(baseCRCs)+len(d.NewCRCs))
	nextCRCs = append(nextCRCs, baseCRCs...)
	for i, blob := range d.NewEntries {
		er, err := decodeEntryRecord(blob)
		if err != nil {
			return nil, nil, err
		}
		e, err := buildEntry(er)
		if err != nil {
			return nil, nil, err
		}
		next.Entries = append(next.Entries, e)
		nextCRCs = append(nextCRCs, d.NewCRCs[i])
	}
	return next, nextCRCs, nil
}

// buildFrames fills the frame lists of shards, a clone of d.Shards, from
// d's runs over the frame walk of base, after checking that the walk is
// the one the references were taken against. It builds no model: Inspect
// rebuilds a file's lists through it too.
func (d *Delta) buildFrames(base, shards []ShardState) error {
	// The base's walk as its lists plus the walk position each starts at.
	var (
		baseLists [][]vidsim.Held
		starts    []int
		walked    int
		digest    uint32
		scratch   = make([]byte, 16)
	)
	walkFrameLists(base, func(list *[]vidsim.Held) {
		if len(*list) == 0 {
			return
		}
		baseLists = append(baseLists, *list)
		starts = append(starts, walked)
		walked += len(*list)
		for i := range *list {
			digest = frameDigest(digest, &(*list)[i], scratch)
		}
	})
	if walked != d.BaseFrames || digest != d.BaseFrameDigest {
		return fmt.Errorf("%w: base walks %d frames (digest %08x), delta references %d (digest %08x)",
			ErrDeltaBase, walked, digest, d.BaseFrames, d.BaseFrameDigest)
	}
	// view returns a run's frames as a sub-slice of the one list that
	// holds them all (capacity clipped, so nobody appends into a shared
	// array), or nil when they span lists.
	view := func(r FrameRun) []vidsim.Held {
		lo, n := int(r.Ref), int(r.N)
		if lo >= d.BaseFrames {
			lo -= d.BaseFrames
			return d.NewFrames[lo : lo+n : lo+n]
		}
		li := sort.SearchInts(starts, lo+1) - 1
		if lo -= starts[li]; lo+n <= len(baseLists[li]) {
			return baseLists[li][lo : lo+n : lo+n]
		}
		return nil
	}
	// gather appends a run's frames to dst, list by list.
	gather := func(dst []vidsim.Held, r FrameRun) []vidsim.Held {
		if v := view(r); v != nil {
			return append(dst, v...)
		}
		li := sort.SearchInts(starts, int(r.Ref)+1) - 1
		for left, pos := int(r.N), int(r.Ref); left > 0; li++ {
			from := baseLists[li][pos-starts[li]:]
			if len(from) > left {
				from = from[:left]
			}
			dst = append(dst, from...)
			left -= len(from)
			pos += len(from)
		}
		return dst
	}

	runs, listNo := d.Runs, uint32(0)
	walkFrameLists(shards, func(list *[]vidsim.Held) {
		n, total := 0, 0
		for n < len(runs) && runs[n].List == listNo {
			total += int(runs[n].N)
			n++
		}
		// A list that is one run of one list — every unchanged declaration,
		// every cycle — shares that list's headers as well as its pixels:
		// an apply allocates for what changed, not for what is retained.
		if n == 1 {
			*list = view(runs[0])
		}
		if n > 0 && *list == nil {
			out := make([]vidsim.Held, 0, total)
			for _, r := range runs[:n] {
				out = gather(out, r)
			}
			*list = out
		}
		runs = runs[n:]
		listNo++
	})
	return nil
}

// EncodeDelta serializes a delta into the checkpoint envelope, the one
// a checkpoint file is: a file is the delta from the empty checkpoint.
func EncodeDelta(d *Delta) ([]byte, error) { return AppendDelta(nil, d) }

// AppendDelta is EncodeDelta appending the envelope to dst — what lets
// a replication primary encode every cycle into one buffer, behind
// whatever framing it reserved at the front, and send it from there.
func AppendDelta(dst []byte, d *Delta) ([]byte, error) {
	if err := d.check(); err != nil {
		return nil, err
	}
	return appendDelta(dst, d)
}

// appendDelta lays the payload out as
//
//	u32  length of the gob record
//	gob  the Delta without NewFrames
//	u32  number of new frames, then each as
//	     i64 index, i64 W, i64 H, u32 pixels × f64
//
// all little-endian, behind the envelope's header. Pixels are the bulk of
// a delta; writing them as one block each is a memmove, where gob spends a
// varint encode per value. A frame held as float32 is widened as it is
// written, so the bytes do not depend on how a frame is held.
func appendDelta(dst []byte, d *Delta) ([]byte, error) {
	start := len(dst)
	dst = append(dst, make([]byte, wire.HeaderSize+4)...)
	rec := *d
	rec.NewFrames = nil
	buf := bytes.NewBuffer(dst)
	if err := gob.NewEncoder(buf).Encode(&rec); err != nil {
		return nil, fmt.Errorf("store: encode delta: %w", err)
	}
	dst = buf.Bytes()
	gobStart := start + wire.HeaderSize + 4
	binary.LittleEndian.PutUint32(dst[gobStart-4:], uint32(len(dst)-gobStart))

	size := 4
	for i := range d.NewFrames {
		size += frameWireSize(&d.NewFrames[i])
	}
	if payload := len(dst) - start - wire.HeaderSize + size; payload > math.MaxUint32 {
		return nil, fmt.Errorf("store: a %d-byte payload does not fit the checkpoint envelope", payload)
	}
	dst = slices.Grow(dst, size)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(d.NewFrames)))
	var px tensor.Vector
	for i := range d.NewFrames {
		dst = appendFrame(dst, &d.NewFrames[i], &px)
	}
	// The format has one message, so its type byte is always 0.
	return vdck.Seal(dst, start, 0), nil
}

// frameWireSize is the exact size appendFrame writes for f.
func frameWireSize(f *vidsim.Held) int {
	return 3*8 + 4 + f.Len()*8
}

// appendFrame writes one new frame body (layout at appendDelta), its
// pixels widened through px, a buffer the caller reuses across frames.
func appendFrame(dst []byte, f *vidsim.Held, px *tensor.Vector) []byte {
	le := binary.LittleEndian
	dst = le.AppendUint64(dst, uint64(f.Index))
	dst = le.AppendUint64(dst, uint64(f.W))
	dst = le.AppendUint64(dst, uint64(f.H))
	dst = le.AppendUint32(dst, uint32(f.Len()))
	*px = f.PixelsInto(*px)
	for _, v := range *px {
		dst = le.AppendUint64(dst, math.Float64bits(v))
	}
	return dst
}

// frameReader decodes new frame bodies off a validated payload. Every
// count is checked against the bytes actually left before anything is
// allocated for it, so a lying length yields ErrTruncated, never a
// panic or an allocation the input did not pay for.
type frameReader struct {
	b   []byte
	err error
	px  tensor.Vector // a body's pixels, decoded before they are held
}

func (r *frameReader) take(n int) []byte {
	if r.err != nil || n < 0 || n > len(r.b) {
		r.err = fmt.Errorf("%w: delta frame section ends early", ErrTruncated)
		return nil
	}
	out := r.b[:n]
	r.b = r.b[n:]
	return out
}

func (r *frameReader) u32() int {
	if b := r.take(4); b != nil {
		return int(binary.LittleEndian.Uint32(b))
	}
	return 0
}

func (r *frameReader) u64() uint64 {
	if b := r.take(8); b != nil {
		return binary.LittleEndian.Uint64(b)
	}
	return 0
}

// count reads an element count and checks that many elements of size
// bytes each are still there.
func (r *frameReader) count(size int) int {
	n := r.u32()
	if r.err == nil && n > len(r.b)/size {
		r.err = fmt.Errorf("%w: delta frame section claims %d elements of %d bytes, %d bytes left", ErrTruncated, n, size, len(r.b))
	}
	if r.err != nil {
		return 0
	}
	return n
}

// frame decodes one body into the reader's pixel buffer and holds it
// (vidsim.Frame.Keep): as float32 when that is exact, the way the frame
// was held when it was written.
func (r *frameReader) frame() vidsim.Held {
	f := vidsim.Frame{Index: int(r.u64()), W: int(r.u64()), H: int(r.u64())}
	if n := r.count(8); n > 0 {
		raw := r.take(8 * n)
		r.px = slices.Grow(r.px[:0], n)[:n]
		for i := range r.px {
			r.px[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
		}
		f.Pixels = r.px
	}
	return f.Keep()
}

// DecodeDelta parses and validates a delta from envelope bytes — a
// replicated generation or a checkpoint file, which is the delta from
// nothing — returning typed errors (never panicking) on malformed input.
// The base digests are checked later, at ApplyDelta time.
func DecodeDelta(data []byte) (*Delta, error) {
	payload, err := openEnvelope(data)
	if err != nil {
		return nil, err
	}
	r := frameReader{b: payload}
	rec := r.take(r.u32())
	if r.err != nil {
		return nil, fmt.Errorf("%w: delta record", ErrTruncated)
	}
	var d Delta
	if err := gob.NewDecoder(bytes.NewReader(rec)).Decode(&d); err != nil {
		return nil, fmt.Errorf("store: decode delta: %w", err)
	}
	for i, blob := range d.NewEntries {
		if i < len(d.NewCRCs) && crc32.ChecksumIEEE(blob) != d.NewCRCs[i] {
			return nil, fmt.Errorf("%w (delta entry %d)", ErrChecksum, i)
		}
	}
	// New frames come from the raw section only, whatever the gob record
	// claims. The smallest body is an empty frame: three integers and a
	// zero pixel count.
	d.NewFrames = nil
	if n := r.count(3*8 + 4); n > 0 {
		d.NewFrames = make([]vidsim.Held, n)
		for i := range d.NewFrames {
			d.NewFrames[i] = r.frame()
		}
	}
	if r.err != nil {
		return nil, r.err
	}
	if len(r.b) != 0 {
		return nil, fmt.Errorf("store: %d stray bytes after the delta's frames", len(r.b))
	}
	if err := d.check(); err != nil {
		return nil, err
	}
	return &d, nil
}
