package store

import (
	"encoding/binary"
	"errors"
	"math"
	"os"
	"reflect"
	"slices"
	"testing"

	"videodrift/internal/core"
	"videodrift/internal/forensics"
	"videodrift/internal/vidsim"
	"videodrift/internal/wire"
)

// nextGeneration evolves a checkpoint into its successor the way a
// live fleet does: the entry table is extended (never rewritten, the
// pointers are shared) and the runtime shard state is replaced.
func nextGeneration(t testing.TB, base *Checkpoint, addEntry bool) *Checkpoint {
	t.Helper()
	next := &Checkpoint{
		CreatedUnixNano: base.CreatedUnixNano + 1,
		Frames:          base.Frames + 50,
		Gen:             base.Gen + 1,
		Epoch:           base.Epoch,
		Entries:         base.Entries,
		Shards:          base.Shards,
	}
	if addEntry {
		day, _ := getFixtures(t)
		reg := core.NewRegistry(day)
		cfg := core.DefaultPipelineConfig(testDim, classes)
		cfg.Provision = quickProvision(31)
		pipe := core.NewPipeline(reg, testLabeler, cfg)
		for _, f := range vidsim.GenerateTraining(testCond(vidsim.Day()), testW, testH, 30, 9) {
			pipe.Process(f)
		}
		next.Entries = append(append([]*core.ModelEntry(nil), base.Entries...), day)
		next.Shards = []ShardState{
			{Registry: []int{0, 2}, Pipeline: pipe.Snapshot()},
			base.Shards[1],
		}
	}
	return next
}

// framedGenerations returns two consecutive generations whose shards
// hold frames the way a live fleet's do: a pre-roll with its marks, a
// selection buffer and a retained declaration, sharing pixel arrays
// between lists and between shards; next keeps most of base's frames,
// drops some and adds new ones.
func framedGenerations(t testing.TB) (base, next *Checkpoint) {
	t.Helper()
	// What a holder keeps: position and pixels.
	fr := vidsim.KeepAll(vidsim.GenerateTraining(testCond(vidsim.Day()), testW, testH, 40, 17))
	at := func(frames []vidsim.Held) (out []int) {
		for _, f := range frames {
			out = append(out, f.Index)
		}
		return out
	}
	withFrames := func(cp *Checkpoint, ring, buffer, declared []vidsim.Held) *Checkpoint {
		sh := append([]ShardState(nil), cp.Shards...)
		sh[0].Forensics = forensics.RecorderState{
			Enabled: true, Frame: 100,
			Ring: append([]vidsim.Held(nil), ring...), At: at(ring),
			Marks: []forensics.Mark{{Frame: ring[0].Index}},
			Declarations: []forensics.Declaration{{ID: "drift-00000042", Frame: 42,
				BaseFrame: declared[0].Index, Frames: declared, At: at(declared)}},
		}
		sh[1].Pipeline.Buffer = append([]vidsim.Held(nil), buffer...)
		cp.Shards = sh
		return cp
	}
	base = withFrames(testCheckpoint(t), fr[0:12], fr[6:16], fr[2:9])
	base.Gen = 1
	next = withFrames(nextGeneration(t, base, false), fr[4:20], fr[10:24], fr[2:9])
	return base, next
}

// allFrames collects every frame of a checkpoint's shard state, in walk
// order.
func allFrames(cp *Checkpoint) []vidsim.Held {
	var out []vidsim.Held
	walkFrameLists(cp.Shards, func(list *[]vidsim.Held) { out = append(out, *list...) })
	return out
}

// TestWalkCoversEveryFrameList pins walkFrameLists to the shard state's
// type: every []vidsim.Held reachable from ShardState must be a list the
// walk visits, or a delta would carry it inline (and a full checkpoint's
// worth of it every cycle). The order is the format's too: a delta's
// frame runs name a list by its ordinal in the walk.
func TestWalkCoversEveryFrameList(t *testing.T) {
	frameList := reflect.TypeOf([]vidsim.Held(nil))
	var count func(reflect.Type) int
	count = func(ty reflect.Type) int {
		switch {
		case ty == frameList:
			return 1
		case ty.Kind() == reflect.Slice || ty.Kind() == reflect.Array || ty.Kind() == reflect.Pointer:
			return count(ty.Elem()) // one element stands for all
		case ty.Kind() == reflect.Struct:
			n := 0
			for i := 0; i < ty.NumField(); i++ {
				n += count(ty.Field(i).Type)
			}
			return n
		}
		return 0
	}
	want := count(reflect.TypeOf(ShardState{}))
	shards := []ShardState{{Forensics: forensics.RecorderState{
		Marks:        make([]forensics.Mark, 1),
		Declarations: make([]forensics.Declaration, 1),
	}}}
	got := 0
	walkFrameLists(shards, func(list *[]vidsim.Held) {
		*list = []vidsim.Held{{Index: got}}
		got++
	})
	if got != want {
		t.Fatalf("walkFrameLists visits %d frame lists of a one-mark, one-declaration shard, its type holds %d", got, want)
	}
	f := shards[0].Forensics
	lists := [][]vidsim.Held{shards[0].Pipeline.Buffer, f.Ring, f.Marks[0].Snap.Buffer, f.Declarations[0].Base.Buffer, f.Declarations[0].Frames}
	for i, list := range lists {
		if list[0].Index != i {
			t.Errorf("frame list %d is walked %d", i, list[0].Index)
		}
	}
}

// TestDeltaFramesShippedOnce is the frame table's contract: a frame the
// base holds travels as a reference, a new frame travels once however
// many lists and shards hold it, and the applied checkpoint equals the
// full round trip while sharing the base's pixel arrays. A file, the
// delta from nothing, holds each of its frames once too.
func TestDeltaFramesShippedOnce(t *testing.T) {
	base, next := framedGenerations(t)
	full, baseCRCs, err := EncodeWithCRCs(base)
	if err != nil {
		t.Fatal(err)
	}
	// The standby's copy of the base: decoded, so it shares nothing with
	// the primary's capture.
	sbBase, sbCRCs, err := DecodeWithCRCs(full)
	if err != nil {
		t.Fatal(err)
	}
	// The file is the delta from nothing, so it holds the base's 29 list
	// slots as its 16 distinct frames, each written once, and the decoded
	// declaration shares its pre-roll's pixel arrays as the capture's does.
	distinct, limit := map[vidsim.HeldID]bool{}, 4<<10
	for _, f := range allFrames(base) {
		if !distinct[f.ID()] {
			distinct[f.ID()] = true
			limit += frameWireSize(&f)
		}
	}
	if len(allFrames(base)) != 29 || len(distinct) != 16 {
		t.Fatalf("base holds %d frames over %d pixel arrays, want 29 over 16", len(allFrames(base)), len(distinct))
	}
	for _, e := range base.Entries {
		blob, err := encodeEntry(e)
		if err != nil {
			t.Fatal(err)
		}
		limit += len(blob)
	}
	if len(full) > limit {
		t.Fatalf("the base's file is %d bytes, want at most %d: its entries, 16 frames and 4 KB", len(full), limit)
	}
	ring, declared := sbBase.Shards[0].Forensics.Ring, sbBase.Shards[0].Forensics.Declarations[0].Frames
	for i := range declared {
		if declared[i].ID() != ring[i+2].ID() {
			t.Fatalf("decoded declaration frame %d has pixels of its own, not its pre-roll's", i)
		}
	}

	d, _, err := DiffCheckpoints(base, baseCRCs, next)
	if err != nil {
		t.Fatalf("diff: %v", err)
	}
	// base holds frames 0..15, next 2..23: eight new frames, each in two
	// lists of two different shards.
	if len(d.NewFrames) != 8 {
		t.Fatalf("delta carries %d new frames, want 8", len(d.NewFrames))
	}
	if d.BaseFrames != len(allFrames(base)) {
		t.Fatalf("delta pins %d base frames, the base walks %d", d.BaseFrames, len(allFrames(base)))
	}
	for _, f := range allFrames(&Checkpoint{Shards: d.Shards}) {
		t.Fatalf("delta shard state still carries frame %d inline", f.Index)
	}
	wire, err := EncodeDelta(d)
	if err != nil {
		t.Fatal(err)
	}
	frameBytes := 8 * testDim
	if limit := 8*frameBytes + 16<<10; len(wire) > limit {
		t.Fatalf("delta is %d bytes for 8 new frames of %d bytes, want at most %d", len(wire), frameBytes, limit)
	}
	dd, err := DecodeDelta(wire)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	applied, _, err := ApplyDelta(sbBase, sbCRCs, dd)
	if err != nil {
		t.Fatalf("apply: %v", err)
	}

	nextFull, err := Encode(next)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Decode(nextFull)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(applied.Shards, want.Shards) {
		t.Fatal("shard state rebuilt from the delta differs from the full round trip")
	}

	// Nothing the base held was copied: every pixel array of the applied
	// checkpoint is the standby base's or one of the eight shipped.
	held := map[vidsim.HeldID]bool{}
	for _, f := range allFrames(sbBase) {
		held[f.ID()] = true
	}
	fresh := map[vidsim.HeldID]bool{}
	for _, f := range allFrames(applied) {
		if !held[f.ID()] {
			fresh[f.ID()] = true
		}
	}
	if len(fresh) != 8 {
		t.Fatalf("applied checkpoint holds %d pixel arrays the base did not, want the 8 shipped", len(fresh))
	}
	// A list that is one run of one base list shares even its headers:
	// the declaration froze frames 2..8 of the pre-roll, which is where
	// the base's walk met them first.
	if a, b := applied.Shards[0].Forensics.Declarations[0].Frames, sbBase.Shards[0].Forensics.Ring[2:]; &a[0] != &b[0] {
		t.Error("an unchanged declaration's frame list was rebuilt instead of shared")
	}
	// Applying twice is safe: the first apply did not consume the delta.
	again, _, err := ApplyDelta(sbBase, sbCRCs, dd)
	if err != nil || !reflect.DeepEqual(again.Shards, want.Shards) {
		t.Fatalf("second apply of one delta: %v", err)
	}
}

func TestDeltaRoundTrip(t *testing.T) {
	base := testCheckpoint(t)
	base.Gen, base.Epoch = 1, 1
	full, baseCRCs, err := EncodeWithCRCs(base)
	if err != nil {
		t.Fatalf("encode base: %v", err)
	}

	// Generation 2: runtime-only change — the steady state, in which a
	// tenant moved on.
	next := nextGeneration(t, base, false)
	next.Shards = slices.Clone(next.Shards)
	next.Shards[1].Tenant, next.Shards[1].Next = "cam-8", 60
	d, nextCRCs, err := DiffCheckpoints(base, baseCRCs, next)
	if err != nil {
		t.Fatalf("diff: %v", err)
	}
	if len(d.NewEntries) != 0 {
		t.Fatalf("steady-state delta carries %d entry blobs", len(d.NewEntries))
	}
	deltaBytes, err := EncodeDelta(d)
	if err != nil {
		t.Fatalf("encode delta: %v", err)
	}
	// The acceptance bar: a steady-state delta is at most a quarter of a
	// full snapshot (in practice far less — no model blobs at all).
	if 4*len(deltaBytes) > len(full) {
		t.Fatalf("steady-state delta is %d bytes, full snapshot %d: exceeds 25%%", len(deltaBytes), len(full))
	}
	t.Logf("full %d bytes, steady-state delta %d bytes (%.1f%%)", len(full), len(deltaBytes), 100*float64(len(deltaBytes))/float64(len(full)))

	got, err := DecodeDelta(deltaBytes)
	if err != nil {
		t.Fatalf("decode delta: %v", err)
	}
	applied, appliedCRCs, err := ApplyDelta(base, baseCRCs, got)
	if err != nil {
		t.Fatalf("apply: %v", err)
	}
	if applied.Gen != 2 || applied.Frames != next.Frames || len(applied.Entries) != len(base.Entries) {
		t.Fatalf("applied gen %d frames %d entries %d", applied.Gen, applied.Frames, len(applied.Entries))
	}
	if sh := applied.Shards[1]; sh.Tenant != "cam-8" || sh.Next != 60 {
		t.Errorf("applied shard 1 serves %q at %d, want cam-8 at 60", sh.Tenant, sh.Next)
	}
	if digestCRCs(appliedCRCs) != digestCRCs(nextCRCs) {
		t.Fatal("applied fingerprint disagrees with the diff's")
	}

	// Generation 3: a provisioned model rides inside the delta.
	next2 := nextGeneration(t, applied, true)
	d2, crcs2, err := DiffCheckpoints(applied, appliedCRCs, next2)
	if err != nil {
		t.Fatalf("diff with new entry: %v", err)
	}
	if len(d2.NewEntries) != 1 {
		t.Fatalf("delta carries %d new entries, want 1", len(d2.NewEntries))
	}
	wire, err := EncodeDelta(d2)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	d2got, err := DecodeDelta(wire)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	applied2, applied2CRCs, err := ApplyDelta(applied, appliedCRCs, d2got)
	if err != nil {
		t.Fatalf("apply with new entry: %v", err)
	}
	if len(applied2.Entries) != 3 || applied2.Entries[2].Name != "day" {
		t.Fatalf("applied entries %d, want the new model appended", len(applied2.Entries))
	}
	if digestCRCs(applied2CRCs) != digestCRCs(crcs2) {
		t.Fatal("fingerprint diverged after an entry-carrying delta")
	}
	// ApplyDelta with a nil fingerprint recomputes it and agrees.
	applied2b, recomputed, err := ApplyDelta(applied, nil, d2got)
	if err != nil {
		t.Fatalf("apply with recomputed CRCs: %v", err)
	}
	if digestCRCs(recomputed) != digestCRCs(applied2CRCs) || len(applied2b.Entries) != 3 {
		t.Fatal("recomputed fingerprint disagrees with the streamed one")
	}
}

func TestDiffRejectsNonExtension(t *testing.T) {
	base := testCheckpoint(t)
	base.Gen = 1
	_, baseCRCs, err := EncodeWithCRCs(base)
	if err != nil {
		t.Fatal(err)
	}

	shrunk := nextGeneration(t, base, false)
	shrunk.Entries = base.Entries[:1]
	shrunk.Shards = []ShardState{{Registry: []int{0}, Pipeline: base.Shards[1].Pipeline}}
	if _, _, err := DiffCheckpoints(base, baseCRCs, shrunk); !errors.Is(err, ErrDeltaBase) {
		t.Fatalf("shrunken table: %v, want ErrDeltaBase", err)
	}

	rewritten := nextGeneration(t, base, false)
	_, night := getFixtures(t)
	rewritten.Entries = []*core.ModelEntry{night, base.Entries[1]}
	if _, _, err := DiffCheckpoints(base, baseCRCs, rewritten); !errors.Is(err, ErrDeltaBase) {
		t.Fatalf("rewritten prefix: %v, want ErrDeltaBase", err)
	}

	if _, _, err := DiffCheckpoints(base, baseCRCs[:1], nextGeneration(t, base, false)); err == nil {
		t.Fatal("mismatched fingerprint length accepted")
	}
}

func TestApplyRejectsWrongBase(t *testing.T) {
	base := testCheckpoint(t)
	base.Gen = 1
	_, baseCRCs, err := EncodeWithCRCs(base)
	if err != nil {
		t.Fatal(err)
	}
	d, _, err := DiffCheckpoints(base, baseCRCs, nextGeneration(t, base, false))
	if err != nil {
		t.Fatal(err)
	}

	wrongGen := *d
	wrongGen.BaseGen = 7
	if _, _, err := ApplyDelta(base, baseCRCs, &wrongGen); !errors.Is(err, ErrDeltaBase) {
		t.Fatalf("wrong base gen: %v, want ErrDeltaBase", err)
	}
	wrongCount := *d
	wrongCount.BaseEntries = 1
	if _, _, err := ApplyDelta(base, baseCRCs, &wrongCount); !errors.Is(err, ErrDeltaBase) {
		t.Fatalf("wrong entry count: %v, want ErrDeltaBase", err)
	}
	wrongDigest := *d
	wrongDigest.BaseDigest ^= 0xffffffff
	if _, _, err := ApplyDelta(base, baseCRCs, &wrongDigest); !errors.Is(err, ErrDeltaBase) {
		t.Fatalf("wrong digest: %v, want ErrDeltaBase", err)
	}

	// The frame side of the same contract: a delta whose references were
	// taken against another frame population, or point past what base and
	// delta hold, is a base mismatch — never a panic, never a misapply.
	fbase, fnext := framedGenerations(t)
	_, fCRCs, err := EncodeWithCRCs(fbase)
	if err != nil {
		t.Fatal(err)
	}
	fd, _, err := DiffCheckpoints(fbase, fCRCs, fnext)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := ApplyDelta(base, baseCRCs, fd); !errors.Is(err, ErrDeltaBase) {
		t.Fatalf("delta applied to a base holding other frames: %v, want ErrDeltaBase", err)
	}
	otherFrames := *fd
	otherFrames.BaseFrameDigest ^= 1
	if _, _, err := ApplyDelta(fbase, fCRCs, &otherFrames); !errors.Is(err, ErrDeltaBase) {
		t.Fatalf("wrong frame digest: %v, want ErrDeltaBase", err)
	}
	for name, run := range map[string]FrameRun{
		"past the base walk":  {List: 0, Ref: uint32(fd.BaseFrames) - 1, N: 2},
		"past the new frames": {List: 0, Ref: uint32(fd.BaseFrames + len(fd.NewFrames)), N: 1},
		"wrapping":            {List: 0, Ref: ^uint32(0), N: 2},
		"empty":               {List: 0, Ref: 0, N: 0},
	} {
		bad := *fd
		bad.Runs = append([]FrameRun{run}, fd.Runs...)
		if _, _, err := ApplyDelta(fbase, fCRCs, &bad); !errors.Is(err, ErrDeltaBase) {
			t.Errorf("run %s: %v, want ErrDeltaBase", name, err)
		}
		if _, err := EncodeDelta(&bad); !errors.Is(err, ErrDeltaBase) {
			t.Errorf("run %s encoded: %v, want ErrDeltaBase", name, err)
		}
	}
	badList := *fd
	badList.Runs = append(append([]FrameRun(nil), fd.Runs...), FrameRun{List: 1 << 20, Ref: 0, N: 1})
	if _, _, err := ApplyDelta(fbase, fCRCs, &badList); err == nil {
		t.Error("a run naming a list the shards do not have was applied")
	}
}

func TestDecodeDeltaRejectsDamage(t *testing.T) {
	base := testCheckpoint(t)
	base.Gen = 1
	_, baseCRCs, err := EncodeWithCRCs(base)
	if err != nil {
		t.Fatal(err)
	}
	d, _, err := DiffCheckpoints(base, baseCRCs, nextGeneration(t, base, true))
	if err != nil {
		t.Fatal(err)
	}
	env, err := EncodeDelta(d)
	if err != nil {
		t.Fatal(err)
	}

	flipped := append([]byte(nil), env...)
	flipped[len(flipped)/2] ^= 0x10
	if _, err := DecodeDelta(flipped); err == nil {
		t.Fatal("corrupted delta decoded")
	}
	if _, err := DecodeDelta(env[:wire.HeaderSize+10]); !errors.Is(err, ErrTruncated) {
		t.Fatalf("truncated delta: %v, want ErrTruncated", err)
	}

	// A file is the delta from nothing: Decode refuses a delta that
	// chains off a real base, and DecodeDelta reads a file as the delta
	// it is.
	if _, err := Decode(env); !errors.Is(err, ErrDeltaBase) {
		t.Fatalf("Decode of a delta off a real base: %v, want ErrDeltaBase", err)
	}
	full, _, err := EncodeWithCRCs(base)
	if err != nil {
		t.Fatal(err)
	}
	if fromNothing, err := DecodeDelta(full); err != nil || fromNothing.BaseEntries != 0 {
		t.Fatalf("DecodeDelta of a file: %v, want a delta from nothing", err)
	}

	// Damage inside the raw frame section, with the envelope re-sealed so
	// only the section's own bounds checks stand between it and a panic.
	fbase, fnext := framedGenerations(t)
	_, fCRCs, err := EncodeWithCRCs(fbase)
	if err != nil {
		t.Fatal(err)
	}
	fd, _, err := DiffCheckpoints(fbase, fCRCs, fnext)
	if err != nil {
		t.Fatal(err)
	}
	fwire, err := EncodeDelta(fd)
	if err != nil {
		t.Fatal(err)
	}
	reseal := func(b []byte) []byte { return vdck.Seal(b, 0, 0) }
	frames := wire.HeaderSize + 4 + int(binary.LittleEndian.Uint32(fwire[wire.HeaderSize:])) // the new-frame count
	if got := binary.LittleEndian.Uint32(fwire[frames:]); got != uint32(len(fd.NewFrames)) {
		t.Fatalf("frame section starts with %d, want the %d new frames", got, len(fd.NewFrames))
	}
	cut := reseal(append([]byte(nil), fwire[:len(fwire)-100]...))
	if _, err := DecodeDelta(cut); !errors.Is(err, ErrTruncated) {
		t.Fatalf("frame section cut short: %v, want ErrTruncated", err)
	}
	lying := append([]byte(nil), fwire...)
	binary.LittleEndian.PutUint32(lying[frames:], 1<<30) // a billion frames in a few kilobytes
	if _, err := DecodeDelta(reseal(lying)); !errors.Is(err, ErrTruncated) {
		t.Fatalf("lying frame count: %v, want ErrTruncated", err)
	}
	stray := reseal(append(append([]byte(nil), fwire...), 0, 0, 0))
	if _, err := DecodeDelta(stray); err == nil {
		t.Fatal("stray bytes after the frame section decoded")
	}
}

// TestDecodesFrameListsWrittenAsFrames reads a checkpoint the store wrote
// before frames were held compact, when every frame list was a
// []vidsim.Frame: a 4×4 model, a training buffer of three full-precision
// frames, a pre-roll of five wire-quantized ones (frame 5 carrying a NaN
// payload float32 cannot hold) and a declaration over three of them. The
// format is the same: the file decodes, every pixel keeps its bits, a
// frame is held as float32 exactly when that is exact, and the
// declaration still shares its pre-roll's arrays.
func TestDecodesFrameListsWrittenAsFrames(t *testing.T) {
	data, err := os.ReadFile("testdata/frame-lists-v5.vdc")
	if err != nil {
		t.Fatal(err)
	}
	cp, err := Decode(data)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(cp.Shards) != 1 || len(cp.Entries) != 1 || cp.Entries[0].Name != "m0" {
		t.Fatalf("decoded %d shards over %d entries", len(cp.Shards), len(cp.Entries))
	}
	want := func(i int, wire bool) []float64 {
		px := make([]float64, 16)
		for j := range px {
			px[j] = float64(i*16+j) / 3
			if wire {
				px[j] = float64(float32(px[j]))
			}
		}
		if i == 5 {
			px[3] = math.Float64frombits(0x7ff8000000000123)
		}
		return px
	}
	check := func(what string, list []vidsim.Held, first int, wire bool) {
		t.Helper()
		for k, h := range list {
			i := first + k
			px := want(i, wire)
			got := h.PixelsInto(nil)
			if h.Index != i || h.W != 4 || h.H != 4 || !slices.EqualFunc(got, px, func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }) {
				t.Errorf("%s frame %d: %+v with pixels %v, want frame %d of %v", what, k, h, got, i, px)
			}
			if compact := wire && i != 5; (h.Bytes() == 4*h.Len()) != compact {
				t.Errorf("%s frame %d: held in %d bytes, want float32 %v", what, k, h.Bytes(), compact)
			}
		}
	}
	sh := cp.Shards[0]
	if sh.Tenant != "cam-1" || sh.Next != 8 || sh.Pipeline.State != 2 || len(sh.Pipeline.Buffer) != 3 || len(sh.Forensics.Ring) != 5 {
		t.Fatalf("decoded shard: tenant %q next %d state %d, %d buffered and %d pre-roll frames",
			sh.Tenant, sh.Next, sh.Pipeline.State, len(sh.Pipeline.Buffer), len(sh.Forensics.Ring))
	}
	check("buffer", sh.Pipeline.Buffer, 0, false)
	check("pre-roll", sh.Forensics.Ring, 3, true)
	d := sh.Forensics.Declarations
	if len(d) != 1 || d[0].ID != "drift-00000006" || len(d[0].Frames) != 3 {
		t.Fatalf("decoded declarations %+v", d)
	}
	for k, h := range d[0].Frames {
		if h.ID() != sh.Forensics.Ring[1+k].ID() {
			t.Errorf("declaration frame %d has an array of its own, not its pre-roll's", k)
		}
	}
	// Written again and read back, it holds the same frames.
	again, err := Encode(cp)
	if err != nil {
		t.Fatal(err)
	}
	back, err := Decode(again)
	if err != nil {
		t.Fatal(err)
	}
	got, wantAll := allFrames(back), allFrames(cp)
	if len(got) != len(wantAll) {
		t.Fatalf("re-encoded, the checkpoint walks %d frames, decoded %d", len(got), len(wantAll))
	}
	for i := range got {
		a, b := got[i], wantAll[i]
		if a.Index != b.Index || a.Bytes() != b.Bytes() || !slices.EqualFunc(a.PixelsInto(nil), b.PixelsInto(nil), func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }) {
			t.Fatalf("walked frame %d re-encoded as %+v, decoded as %+v", i, a, b)
		}
	}
}
