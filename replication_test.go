package videodrift

import (
	"errors"
	"net"
	"reflect"
	"testing"

	"videodrift/internal/replica"
	"videodrift/internal/store"
	"videodrift/internal/vidsim"
)

// checkpointFrames collects every frame reachable from a checkpoint's
// shard state, wherever the state keeps it.
func checkpointFrames(cp *Checkpoint) []Frame {
	var out []Frame
	frame := reflect.TypeOf(Frame{})
	var visit func(v reflect.Value)
	visit = func(v reflect.Value) {
		switch {
		case v.Type() == frame:
			out = append(out, v.Interface().(Frame))
		case v.Kind() == reflect.Slice || v.Kind() == reflect.Array:
			for i := 0; i < v.Len(); i++ {
				visit(v.Index(i))
			}
		case v.Kind() == reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				visit(v.Field(i))
			}
		}
	}
	visit(reflect.ValueOf(cp.Shards))
	return out
}

// TestDeltaChainEqualsFull is the delta layout's end-to-end contract,
// on the state a serving fleet really has: a dynamic two-shard fleet
// with forensics on, driven through drifts that train new models on
// shard 0 and on shard 1 and push declarations past the retention
// limit. Every cycle a primary ships the capture to a standby, and the
// same capture is diffed, encoded, decoded and applied onto a running
// chain by hand. At every cycle:
//
//   - the standby's checkpoint and the hand-applied one equal the
//     capture's own full encode/decode round trip;
//   - no diff is ErrDeltaBase and the primary ships no full after first
//     contact, whichever shard trained (the entry table only grows);
//   - the applied checkpoint shares every pixel array the chain already
//     held, and the delta carries each new frame once — which is also
//     what would catch a frame whose pixels were written after
//     submission (vidsim.Frame's invariant): the chain would keep the
//     old values and stop matching the full round trip.
//
// It runs over a full day model, whose table then mixes it with the
// ensemble-less models MSBI trains, and over the ensemble-less day model
// an MSBI server boots with — the fleet the benchmark replicates.
func TestDeltaChainEqualsFull(t *testing.T) {
	t.Run("full-base", func(t *testing.T) { testDeltaChainEqualsFull(t, getCkptModels()[:1]) })
	t.Run("lean-base", func(t *testing.T) { testDeltaChainEqualsFull(t, getLeanCkptModels()[:1]) })
}

func testDeltaChainEqualsFull(t *testing.T, base []*Model) {
	opts := Defaults(facadeDim, facadeClasses)
	opts.Pipeline.Selector = MSBI
	opts.Pipeline.NewModelFrames = 48
	opts.Provision.VAEEpochs = 2
	opts.Provision.SampleCount = 60
	opts.Provision.EnsembleSize = 2
	opts.Provision.Classifier.Epochs = 10
	opts.Forensics = ForensicsConfig{Enabled: true, Window: 16, Keep: 2}
	// A day-only registry: every other condition forces a training.
	sm := NewDynamicSharded(base, facadeLabeler, ShardedOptions{Options: opts, Workers: 2})
	for s := 0; s < 2; s++ {
		if _, err := sm.Attach(nil); err != nil {
			t.Fatal(err)
		}
	}
	// Shard 1 meets its first unseen condition before shard 0 does and
	// shard 0 trains last, so a table numbered in shard order would shift
	// under shard 1's models.
	segment := func(c Condition, n int, seed int64) []Frame {
		return vidsim.GenerateTrainingStride(facadeCond(c), 16, 16, n, 1, seed)
	}
	streams := [][]Frame{
		append(append(append(segment(vidsim.Day(), 150, 1), segment(vidsim.Night(), 170, 2)...), segment(vidsim.SnowCond(), 170, 3)...), segment(vidsim.RainCond(), 170, 4)...),
		append(append(append(segment(vidsim.Day(), 60, 5), segment(vidsim.Night(), 170, 6)...), segment(vidsim.RainCond(), 170, 7)...), segment(vidsim.Day(), 260, 8)...),
	}
	const every = 7 // frames per replication cycle

	// The primary ships the capture the test hands it, so the test can
	// diff the very same capture by hand.
	var cur *Checkpoint
	sb := replica.NewStandby(replica.StandbyConfig{Logf: t.Logf})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go sb.Serve(ln)
	prim := replica.NewPrimary(replica.PrimaryConfig{
		Addrs:   []string{ln.Addr().String()},
		Capture: func() *store.Checkpoint { return cur },
		Logf:    t.Logf,
	})
	t.Cleanup(func() {
		prim.Close()
		ln.Close()
		sb.Close()
	})

	var (
		prev, chain         *Checkpoint
		prevCRCs, chainCRCs []uint32
		newEntries          int
	)
	cycle := func(step int) {
		cur = sm.Checkpoint()
		if err := prim.Cycle(); err != nil { // stamps cur.Gen and cur.Epoch
			t.Fatalf("frame %d: cycle: %v", step, err)
		}
		full, crcs, err := store.EncodeWithCRCs(cur)
		if err != nil {
			t.Fatal(err)
		}
		want, err := store.Decode(full)
		if err != nil {
			t.Fatal(err)
		}
		if prev == nil {
			chain, chainCRCs, err = store.DecodeWithCRCs(full)
			if err != nil {
				t.Fatal(err)
			}
		} else {
			d, _, err := store.DiffCheckpoints(prev, prevCRCs, cur)
			if err != nil {
				t.Fatalf("frame %d: diff gen %d: %v (ErrDeltaBase: %v)", step, cur.Gen, err, errors.Is(err, store.ErrDeltaBase))
			}
			wire, err := store.EncodeDelta(d)
			if err != nil {
				t.Fatal(err)
			}
			blobs := 0
			for _, b := range d.NewEntries {
				blobs += len(b)
			}
			newEntries += len(d.NewEntries)
			if limit := len(d.NewFrames)*(8*facadeDim+256) + blobs + 64<<10; len(wire) > limit {
				t.Fatalf("frame %d: delta is %d bytes for %d new frames and %d entry bytes, want at most %d",
					step, len(wire), len(d.NewFrames), blobs, limit)
			}
			dd, err := store.DecodeDelta(wire)
			if err != nil {
				t.Fatalf("frame %d: decode delta: %v", step, err)
			}
			held := map[*float64]bool{}
			for _, f := range checkpointFrames(chain) {
				held[&f.Pixels[0]] = true
			}
			chain, chainCRCs, err = store.ApplyDelta(chain, chainCRCs, dd)
			if err != nil {
				t.Fatalf("frame %d: apply gen %d: %v", step, cur.Gen, err)
			}
			fresh := map[*float64]bool{}
			for _, f := range checkpointFrames(chain) {
				if !held[&f.Pixels[0]] {
					fresh[&f.Pixels[0]] = true
				}
			}
			if len(fresh) > every*2 || len(fresh) != len(dd.NewFrames) {
				t.Fatalf("frame %d: applying gen %d brought %d pixel arrays the chain did not hold; the delta shipped %d frames for %d submitted",
					step, cur.Gen, len(fresh), len(dd.NewFrames), every*2)
			}
		}
		for name, got := range map[string]*Checkpoint{"hand-applied chain": chain, "standby": sb.Latest()} {
			if got.Gen != want.Gen || got.Epoch != want.Epoch || got.Frames != want.Frames || got.CreatedUnixNano != want.CreatedUnixNano {
				t.Fatalf("frame %d: %s is gen %d epoch %d frames %d, capture is gen %d epoch %d frames %d",
					step, name, got.Gen, got.Epoch, got.Frames, want.Gen, want.Epoch, want.Frames)
			}
			if !reflect.DeepEqual(got.Shards, want.Shards) {
				t.Fatalf("frame %d: %s's shard state differs from the capture's full round trip at gen %d", step, name, cur.Gen)
			}
			// Entries hold function values, which DeepEqual never equates:
			// compare them by their encoded blobs instead.
			gotCRCs, err := store.EntryCRCs(got)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(gotCRCs, crcs) {
				t.Fatalf("frame %d: %s's model table differs from the capture's at gen %d", step, name, cur.Gen)
			}
		}
		prev, prevCRCs = cur, crcs
	}

	total := len(streams[0])
	for step := 0; step < total; step++ {
		mustBatch(sm, []Frame{streams[0][step], streams[1][step]})
		if step%every == every-1 {
			cycle(step)
		}
	}

	for s := 0; s < 2; s++ {
		if st := sm.ShardStats(s); st.ModelsTrained == 0 {
			t.Errorf("shard %d trained no model (%+v): the run never grew the table from that shard", s, st)
		}
		if st := sm.ShardStats(s); st.DriftsDetected <= opts.Forensics.Keep {
			t.Errorf("shard %d declared %d drifts, want more than the %d retained", s, st.DriftsDetected, opts.Forensics.Keep)
		}
	}
	if trained := sm.Stats().ModelsTrained; newEntries != trained {
		t.Errorf("deltas carried %d new entries for %d trainings", newEntries, trained)
	}
	for _, e := range chain.Entries[1:] {
		if e.Classifier == nil || e.Ensemble != nil {
			t.Errorf("replicated model %q: classifier %v, ensemble %v; MSBI trains the first and not the second", e.Name, e.Classifier != nil, e.Ensemble != nil)
		}
	}
	ps := prim.Stats()
	if want := uint64(total / every); ps.Cycles != want || ps.Fulls != 1 || ps.Deltas != want-1 {
		t.Errorf("primary shipped %d fulls and %d deltas in %d cycles, want 1 full (first contact) and %d deltas in %d",
			ps.Fulls, ps.Deltas, ps.Cycles, want-1, want)
	}
}
