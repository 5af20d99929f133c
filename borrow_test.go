package videodrift

import (
	"math"
	"reflect"
	"testing"

	"videodrift/internal/faults"
	"videodrift/internal/store"
	"videodrift/internal/vidsim"
)

// lender feeds frames the way an embedder that reuses its buffers does
// (and the ingestion tier does with its free list): every frame is copied
// into a buffer of the lender's, and once the call that borrowed them has
// returned poison overwrites every buffer — NaN pixels, ground truth that
// counts nothing, a foreign header — before the next frames are copied
// in. A holder that kept a borrowed frame instead of a copy of its own
// reads the poison, and the run stops equalling the fresh-buffer one.
type lender struct{ bufs [][]Frame }

// lend returns batches over the lender's buffers: shard s's j-th frame in
// bufs[s][j].
func (l *lender) lend(batches [][]Frame) [][]Frame {
	out := make([][]Frame, len(batches))
	for s, b := range batches {
		out[s] = make([]Frame, len(b))
		for j, f := range b {
			out[s][j] = l.lendAt(s, j, f)
		}
	}
	return out
}

// lendAt copies f into buffer bufs[s][j] and returns the frame over it.
func (l *lender) lendAt(s, j int, f Frame) Frame {
	for len(l.bufs) <= s {
		l.bufs = append(l.bufs, nil)
	}
	for len(l.bufs[s]) <= j {
		l.bufs[s] = append(l.bufs[s], Frame{})
	}
	buf := &l.bufs[s][j]
	px, truth := append(buf.Pixels[:0], f.Pixels...), append(buf.Truth[:0], f.Truth...)
	if f.Truth == nil {
		truth = nil
	}
	*buf = f
	buf.Pixels, buf.Truth = px, truth
	return *buf
}

func (l *lender) poison() {
	for _, b := range l.bufs {
		for j := range b {
			for i := range b[j].Pixels {
				b[j].Pixels[i] = math.NaN()
			}
			for i := range b[j].Truth {
				b[j].Truth[i] = vidsim.Object{X: -1, Y: -1}
			}
			b[j].Index, b[j].Condition = -1, "poisoned"
		}
	}
}

// borrowFixture is the fleet every borrow test runs: a day-only table, so
// each later condition is a declaration, an MSBI selection that finds
// nothing and a training — both holders (the selection/training window
// and the forensics pre-roll) keep frames — over short streams.
func borrowFixture() ([]*Model, Options, [][]Frame) {
	opts := Defaults(facadeDim, facadeClasses)
	opts.Pipeline.Selector = MSBI
	opts.Pipeline.NewModelFrames = 48
	opts.Provision = opts.Provision.For(MSBI)
	opts.Provision.SampleCount = 60
	opts.Provision.Classifier.Epochs = 10
	opts.Forensics = ForensicsConfig{Enabled: true, Window: 16, Keep: 2}
	segment := func(c Condition, n int, seed int64) []Frame {
		return vidsim.GenerateTrainingStride(facadeCond(c), 16, 16, n, 1, seed)
	}
	streams := [][]Frame{
		append(append(segment(vidsim.Day(), 90, 21), segment(vidsim.Night(), 150, 22)...), segment(vidsim.SnowCond(), 150, 23)...),
		append(append(segment(vidsim.Day(), 60, 24), segment(vidsim.RainCond(), 150, 25)...), segment(vidsim.Day(), 180, 26)...),
	}
	return getCkptModels()[:1], opts, streams
}

// declared is every shard's retained declarations and their Explain
// reports.
func declared(t *testing.T, mons ...*Monitor) (decls [][]DriftDeclaration, reports [][]DriftReport) {
	t.Helper()
	for _, m := range mons {
		ds := m.Forensics().Declarations()
		rs := make([]DriftReport, len(ds))
		for i, d := range ds {
			r, err := m.Explain(d.ID)
			if err != nil {
				t.Fatalf("explain %s: %v", d.ID, err)
			}
			rs[i] = r
		}
		decls, reports = append(decls, ds), append(reports, rs)
	}
	return decls, reports
}

// TestProcessBorrowsPixels is the borrow contract at the library's three
// entry points: Monitor.Process, ShardedMonitor.ProcessBatches and
// ProcessBatchesInto fed the way the ingestion router's pump feeds it,
// each from buffers the caller overwrites after every call, emit the
// events and keep the declarations (pre-rolls and replay bases included)
// of a run fed fresh frames.
func TestProcessBorrowsPixels(t *testing.T) {
	models, opts, streams := borrowFixture()
	trainings := 0

	t.Run("Monitor.Process", func(t *testing.T) {
		fresh, lent := NewMonitor(models, facadeLabeler, opts), NewMonitor(models, facadeLabeler, opts)
		var l lender
		for i, f := range streams[0] {
			want := fresh.Process(f)
			got := lent.Process(l.lendAt(0, 0, f))
			l.poison()
			if got != want {
				t.Fatalf("frame %d: event %+v from a borrowed buffer, %+v from a fresh one", i, got, want)
			}
		}
		gd, gr := declared(t, lent)
		wd, wr := declared(t, fresh)
		if !reflect.DeepEqual(gd, wd) || !reflect.DeepEqual(gr, wr) {
			t.Fatal("declarations or their reports differ from the fresh-buffer run's")
		}
		trainings += fresh.Stats().ModelsTrained
	})

	sopts := ShardedOptions{Options: opts, Shards: len(streams), Workers: 2}
	run := func(feed func(sm *ShardedMonitor) [][]Event) ([][]Event, [][]DriftDeclaration, [][]DriftReport) {
		sm := NewShardedMonitor(models, facadeLabeler, sopts)
		evs := feed(sm)
		decls, reports := declared(t, sm.Shard(0), sm.Shard(1))
		return evs, decls, reports
	}
	const size = 8
	batched := func(l *lender) func(sm *ShardedMonitor) [][]Event {
		return func(sm *ShardedMonitor) [][]Event {
			got := make([][]Event, len(streams))
			for at := 0; at < len(streams[0]); at += size {
				batches := make([][]Frame, len(streams))
				for s := range streams {
					batches[s] = streams[s][at:min(at+size, len(streams[s]))]
				}
				if l != nil {
					batches = l.lend(batches)
				}
				for s, evs := range mustBatches(sm, batches) {
					got[s] = append(got[s], evs...)
				}
				if l != nil {
					l.poison()
				}
			}
			return got
		}
	}
	we, wd, wr := run(batched(nil))

	t.Run("ShardedMonitor.ProcessBatches", func(t *testing.T) {
		ge, gd, gr := run(batched(&lender{}))
		if !reflect.DeepEqual(ge, we) || !reflect.DeepEqual(gd, wd) || !reflect.DeepEqual(gr, wr) {
			t.Fatal("events, declarations or reports differ from the fresh-buffer run's")
		}
	})

	t.Run("ProcessBatchesInto", func(t *testing.T) {
		ge, gd, gr := run(func(sm *ShardedMonitor) [][]Event {
			got := make([][]Event, len(streams))
			var (
				l      lender
				events [][]Event
				err    error
			)
			// Pump p drains a ragged queue a shard and feeds it in rounds: round
			// r gives every shard its queued frames [r·size, (r+1)·size), into
			// the events of the call before.
			at := make([]int, len(streams))
			for p := 0; at[0] < len(streams[0]) || at[1] < len(streams[1]); p++ {
				queues := make([][]Frame, len(streams))
				for s := range streams {
					end := min(at[s]+1+(5*p+3*s)%(2*size), len(streams[s]))
					queues[s], at[s] = streams[s][at[s]:end], end
				}
				for r := 0; r < max(len(queues[0]), len(queues[1])); r += size {
					batches := make([][]Frame, len(streams))
					for s, q := range queues {
						batches[s] = q[min(r, len(q)):min(r+size, len(q))]
					}
					if events, err = sm.ProcessBatchesInto(l.lend(batches), events); err != nil {
						t.Fatal(err)
					}
					l.poison()
					for s, evs := range events {
						got[s] = append(got[s], evs...)
					}
				}
			}
			return got
		})
		if !reflect.DeepEqual(ge, we) || !reflect.DeepEqual(gd, wd) || !reflect.DeepEqual(gr, wr) {
			t.Fatal("events, declarations or reports differ from the fresh-buffer run's")
		}
	})

	if trainings == 0 {
		t.Error("the stream trained no model: the training window was never held")
	}
}

// TestBorrowedRunEqualsFresh holds the supervisor's and the replication
// tier's paths to the borrow contract: the same fleet, fed once fresh
// frames and once frames from buffers poisoned after every call, through
// worker panics that land mid-batch (a chaos batch: restore and re-run
// from the supervisor's snapshot), a delta chain that ships a capture
// after every batch, a failover onto the chain's head, and the promoted
// fleet's continuation. Every event, declaration and Explain report, every
// full checkpoint's and delta's bytes must be the fresh run's.
func TestBorrowedRunEqualsFresh(t *testing.T) {
	models, opts, streams := borrowFixture()
	const size, killAt = 8, 232
	type outcome struct {
		Events  [][]Event
		Decls   [][]DriftDeclaration
		Reports [][]DriftReport
		Full    []byte   // the first capture and the promoted fleet's last
		Deltas  [][]byte // one per batch after the first
	}
	run := func(l *lender) (o outcome) {
		inj := faults.NewInjector(faults.Schedule{Seed: 3, Faults: []faults.Fault{
			{Shard: 0, Frame: 43, Kind: faults.KindWorkerPanic},
			{Shard: 1, Frame: 99, Kind: faults.KindWorkerPanic},
			{Shard: 0, Frame: 131, Kind: faults.KindWorkerPanic},
		}})
		sopts := ShardedOptions{Options: opts, Shards: len(streams), Workers: 2}
		chaos := sopts
		chaos.Faults = inj
		sm := NewShardedMonitor(models, facadeLabeler, chaos)
		o.Events = make([][]Event, len(streams))
		feed := func(sm *ShardedMonitor, from, to int) {
			for at := from; at < to; at += size {
				batches := make([][]Frame, len(streams))
				for s := range streams {
					batches[s] = streams[s][at:min(at+size, to)]
				}
				if l != nil {
					batches = l.lend(batches)
				}
				for s, evs := range mustBatches(sm, batches) {
					o.Events[s] = append(o.Events[s], evs...)
				}
				if l != nil {
					l.poison()
				}
			}
		}
		capture := func(sm *ShardedMonitor) (*Checkpoint, []byte, []uint32) {
			cp := sm.Checkpoint()
			cp.CreatedUnixNano = 0
			full, crcs, err := store.EncodeWithCRCs(cp)
			if err != nil {
				t.Fatal(err)
			}
			return cp, full, crcs
		}

		var (
			prev, chain         *Checkpoint
			prevCRCs, chainCRCs []uint32
		)
		for at := 0; at < killAt; at += size {
			feed(sm, at, at+size)
			cp, full, crcs := capture(sm)
			if prev == nil {
				o.Full = full
				var err error
				if chain, chainCRCs, err = store.DecodeWithCRCs(full); err != nil {
					t.Fatal(err)
				}
			} else {
				d, _, err := store.DiffCheckpoints(prev, prevCRCs, cp)
				if err != nil {
					t.Fatalf("frame %d: diff: %v", at, err)
				}
				wire, err := store.EncodeDelta(d)
				if err != nil {
					t.Fatal(err)
				}
				o.Deltas = append(o.Deltas, wire)
				dd, err := store.DecodeDelta(wire)
				if err != nil {
					t.Fatal(err)
				}
				if chain, chainCRCs, err = store.ApplyDelta(chain, chainCRCs, dd); err != nil {
					t.Fatalf("frame %d: apply: %v", at, err)
				}
			}
			prev, prevCRCs = cp, crcs
		}
		if h := sm.Health(); h.Shards[0].Restarts+h.Shards[1].Restarts != 3 {
			t.Fatalf("%d supervised restarts, want 3", h.Shards[0].Restarts+h.Shards[1].Restarts)
		}
		// Failover: the standby's chain becomes the live fleet.
		resumed, err := ResumeSharded(chain, facadeLabeler, sopts)
		if err != nil {
			t.Fatal(err)
		}
		feed(resumed, killAt, len(streams[0]))
		o.Decls, o.Reports = declared(t, resumed.Shard(0), resumed.Shard(1))
		_, last, _ := capture(resumed)
		o.Full = append(o.Full, last...)
		if resumed.Stats().ModelsTrained == 0 || len(o.Decls[0]) == 0 {
			t.Fatal("the continuation trained or declared nothing: the holders were never exercised")
		}
		return o
	}
	want, got := run(nil), run(&lender{})
	if !reflect.DeepEqual(got.Events, want.Events) {
		t.Error("events differ from the fresh-buffer run's")
	}
	if !reflect.DeepEqual(got.Decls, want.Decls) || !reflect.DeepEqual(got.Reports, want.Reports) {
		t.Error("declarations or their Explain reports differ from the fresh-buffer run's")
	}
	if !reflect.DeepEqual(got.Full, want.Full) {
		t.Error("checkpoint bytes differ from the fresh-buffer run's")
	}
	if !reflect.DeepEqual(got.Deltas, want.Deltas) {
		t.Error("delta bytes differ from the fresh-buffer run's")
	}
}
