package main

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"runtime"
	"time"

	"videodrift"
	"videodrift/internal/classifier"
	"videodrift/internal/conformal"
	"videodrift/internal/core"
	"videodrift/internal/experiments"
	"videodrift/internal/ingest"
	"videodrift/internal/parallel"
	"videodrift/internal/replica"
	"videodrift/internal/stats"
	"videodrift/internal/store"
	"videodrift/internal/vidsim"
	"videodrift/internal/vision"
)

// The ledger attributes the cost of a frame to layers by nested replay:
// the same frame sequence is pushed through successively narrower
// public entry points, and a layer's self time is its per-frame cost
// minus the next narrower replay's. The bit-identity contracts make
// every replay do the same inner work, which the ledger asserts by
// comparing drift, selection and training counts across replays.
//
// Per-frame costs are block means: the Drift Inspector samples every
// tenth frame, so a per-call median would report the nine cheap frames
// and miss the kNN; the median over 40-frame block means keeps the
// stride's average and still sheds GC pauses and false-alarm selections.

const (
	blockSize    = 40 // a multiple of the inspector's stride and of batch 8
	ledgerTenant = "ledger-0"
)

// blocks accumulates one-frame call durations into block means.
type blocks struct {
	cur   time.Duration
	calls int
	means []float64 // µs per frame
}

func (b *blocks) add(d time.Duration) {
	b.cur += d
	b.calls++
	if b.calls%blockSize == 0 {
		b.means = append(b.means, float64(b.cur)/1e3/blockSize)
		b.cur = 0
	}
}

func (b *blocks) us() float64 { return median(b.means) }

type ledger struct {
	env    *experiments.Env
	seed   int64
	spans  *spanLog
	out    map[string]measurement
	frames []vidsim.Frame    // stationary frames as the server's pipeline sees them
	msgs   []ingest.FrameMsg // the same frames as decoded wire messages
}

func (l *ledger) set(name string, v float64, unit string, samples int) {
	l.out[name] = measurement{v, unit, samples}
}

// runLedger measures every ledger line. spans may be nil.
func runLedger(c *runConfig, env *experiments.Env, spans *spanLog) (map[string]measurement, error) {
	l := &ledger{env: env, seed: c.seed, spans: spans, out: map[string]measurement{}}
	for _, step := range []func() error{
		l.wire, l.nestedReplay, l.kernels, l.supervision, l.selection, l.replication,
	} {
		if err := step(); err != nil {
			return nil, err
		}
	}
	return l.out, nil
}

// wire measures frame encode and decode, and keeps the decoded frames
// for the replays.
func (l *ledger) wire() error {
	src := newFrameSource(&workload{}, l.seed, 0, 0) // no segments: stationary
	var enc, dec blocks
	var ms0, ms1 runtime.MemStats
	var decBytes uint64
	for seq := 0; seq < ledgerFrames; seq++ {
		f := src.next()
		var wire []byte
		enc.add(l.spans.timed("ingest.encode", "", ledgerTenant, seq, func() {
			wire = ingest.EncodeFrame(ingest.MsgFromFrame(ledgerTenant, uint64(seq), f))
		}))
		var (
			m    ingest.FrameMsg
			wf   vidsim.Frame
			derr error
		)
		runtime.ReadMemStats(&ms0)
		d := l.spans.timed("ingest.decode", "", ledgerTenant, seq, func() {
			_, payload, err := ingest.ReadMsg(bytes.NewReader(wire))
			if err != nil {
				derr = err
				return
			}
			if m, derr = ingest.DecodeFrameMsg(payload); derr == nil {
				wf = ingest.FrameFromMsg(m)
			}
		})
		runtime.ReadMemStats(&ms1)
		if derr != nil {
			return fmt.Errorf("ledger: decoding frame %d: %w", seq, derr)
		}
		dec.add(d)
		decBytes += ms1.TotalAlloc - ms0.TotalAlloc
		l.msgs = append(l.msgs, m)
		l.frames = append(l.frames, wf)
	}
	l.set("ingest.encode_us", enc.us(), "us", enc.calls)
	l.set("ingest.decode_us", dec.us(), "us", dec.calls)
	l.set("ingest.decode_bytes", float64(decBytes)/ledgerFrames, "B", ledgerFrames)
	return nil
}

// fleet builds a dynamic fleet the way driftserve's ingest mode does.
func (l *ledger) fleet(sel core.SelectorKind) *videodrift.ShardedMonitor {
	return videodrift.NewDynamicSharded(l.env.Registry.Entries(), l.env.Labeler(), videodrift.ShardedOptions{
		Options:      monitorOptions(l.env, sel, true, newTracer()),
		Workers:      1,
		StallTimeout: 10 * time.Second,
	})
}

// countsOf keeps the part of a replay's metrics every level must agree on.
func countsOf(m core.Metrics) [3]int {
	return [3]int{m.DriftsDetected, m.ModelsSelected, m.ModelsTrained}
}

// level is one entry point of the nested replay. Each level owns its
// monitor, so every level sees every frame exactly once, in order.
type level struct {
	name, parent string
	step         int               // frames one call consumes
	log          *spanLog          // where the level's spans go
	call         func(k int) error // processes frames[k : k+step]
	counts       func() core.Metrics
	us           []float64 // per block: mean µs per frame
}

// paired is the median over blocks of a's per-frame cost minus b's (b
// nil: a's cost alone). Differences are taken within a block, where both
// levels ran back to back on the same frames, so drift in the machine's
// state over the replay cancels.
func paired(a, b *level) float64 {
	d := make([]float64, len(a.us))
	for i := range d {
		d[i] = a.us[i]
		if b != nil {
			d[i] -= b.us[i]
		}
	}
	return median(d)
}

// nestedReplay pushes the stationary frames through each entry point
// from the router down to the bare monitor, a block at a time through
// every level in turn.
func (l *ledger) nestedReplay() error {
	sel := core.SelectorMSBO
	entries, labeler := l.env.Registry.Entries(), l.env.Labeler()

	// Router.Submit + Router.Pump at -batch 1; Submit is also timed alone.
	rsm := l.fleet(sel)
	rt := ingest.NewRouter(rsm, ingest.Config{BatchSize: 1, NewTracer: func(string) *videodrift.Tracer { return newTracer() }})
	var submitNS time.Duration
	var submitUS []float64
	router := &level{name: "ingest.route", step: 1, log: l.spans, counts: rsm.Stats, call: func(k int) error {
		var v ingest.Verdict
		submitNS += l.spans.timed("ingest.submit", "ingest.route", ledgerTenant, k, func() { v = rt.Submit(l.msgs[k]) })
		if !v.Ack {
			return fmt.Errorf("router refused frame %d: %s", k, v.Reason)
		}
		_, err := rt.Pump()
		return err
	}}

	sharded := func(batch int) (*level, error) {
		sm := l.fleet(sel)
		if _, err := sm.Attach(newTracer()); err != nil {
			return nil, err
		}
		return &level{name: fmt.Sprintf("sharded.process_batches_b%d", batch), parent: "ingest.route", step: batch, log: l.spans,
			counts: sm.Stats, call: func(k int) error {
				_, err := sm.ProcessBatches([][]vidsim.Frame{l.frames[k : k+batch]})
				return err
			}}, nil
	}
	b1, err := sharded(1)
	if err != nil {
		return err
	}
	b8, err := sharded(8)
	if err != nil {
		return err
	}

	monitor := func(name string, forensicsOn, traced bool, log *spanLog) *level {
		var tr *videodrift.Tracer
		if traced {
			tr = newTracer()
		}
		mon := videodrift.NewMonitor(entries, labeler, monitorOptions(l.env, sel, forensicsOn, tr))
		return &level{name: name, parent: "sharded.process_batches_b1", step: 1, log: log, counts: mon.Stats,
			call: func(k int) error { mon.Process(l.frames[k]); return nil }}
	}
	both := monitor("monitor.process", true, true, l.spans) // as driftserve wires it
	tracerOnly := monitor("monitor.process_tracer_only", false, true, l.spans)
	bare := monitor("core.process", false, false, l.spans)
	// The bare replay twice more, with no span log and with one that
	// keeps every span: what recording costs where it is densest.
	unspanned := monitor("core.process", false, false, nil)
	spanned := monitor("core.process", false, false, newSpanLog(0))

	levels := []*level{router, b1, b8, both, tracerOnly, bare, unspanned, spanned}
	n := len(l.frames) / blockSize * blockSize
	for k0 := 0; k0 < n; k0 += blockSize {
		// Rotate which level goes first, so no level always runs on a
		// cache another just warmed.
		for j := range levels {
			lv := levels[(k0/blockSize+j)%len(levels)]
			submitNS = 0
			var sum time.Duration
			for k := k0; k < k0+blockSize; k += lv.step {
				var cerr error
				sum += lv.log.timed(lv.name, lv.parent, ledgerTenant, k, func() { cerr = lv.call(k) })
				if cerr != nil {
					return fmt.Errorf("ledger: %s: %w", lv.name, cerr)
				}
			}
			lv.us = append(lv.us, float64(sum)/1e3/blockSize)
			if lv == router {
				submitUS = append(submitUS, float64(submitNS)/1e3/blockSize)
			}
		}
	}
	want := countsOf(router.counts())
	for _, lv := range levels[1:] {
		if got := countsOf(lv.counts()); got != want {
			return fmt.Errorf("ledger: %s saw %+v drifts/selections/trainings, the router replay %+v", lv.name, got, want)
		}
	}

	l.set("ingest.submit_us", median(submitUS), "us", n)
	l.set("ingest.pump_us", paired(router, nil)-median(submitUS), "us", n) // feeds the attributed share, not emitted
	l.set("ingest.pump_self_us", paired(router, b1)-median(submitUS), "us", n)
	l.set("sharded.supervise_self_us_b1", paired(b1, both), "us", n)
	l.set("sharded.supervise_self_us_b8", paired(b8, both), "us", n)
	l.set("forensics.record_us", paired(both, tracerOnly), "us", n)
	l.set("telemetry.tracer_us", paired(tracerOnly, bare), "us", n)
	l.set("core.process_us", paired(bare, nil), "us", n)
	l.set("trace.overhead_share", paired(spanned, unspanned)/paired(unspanned, nil), "ratio", n)
	return nil
}

// kernels times the calls inside Pipeline.Process one at a time.
func (l *ledger) kernels() error {
	entry := l.env.Registry.Entries()[0]
	cfg := l.env.PipelineConfig(core.SelectorMSBO).DI
	di := core.NewDriftInspector(entry, cfg, stats.NewRNG(l.seed))
	var classify, observe blocks
	for seq, f := range l.frames {
		classify.add(l.spans.timed("core.classify", "core.process", ledgerTenant, seq, func() { entry.Predict(f) }))
		var fired bool
		observe.add(l.spans.timed("core.di_observe", "core.process", ledgerTenant, seq, func() { fired = di.ObserveFrame(f) }))
		if fired {
			di.Reset() // a false alarm: no selector here, keep monitoring
		}
	}
	l.set("core.classify_us", classify.us(), "us", classify.calls)
	l.set("core.di_observe_us", observe.us(), "us", observe.calls)

	// The inspector's four steps, on the frames it samples.
	var fz vision.Featurizer
	scorer := conformal.NewKNNScorer(cfg.K, entry.FeatMatrix())
	var featurize, score []float64
	var scores []float64
	for seq := 0; seq < len(l.frames); seq += cfg.SampleEvery {
		f := l.frames[seq]
		var feat []float64
		featurize = append(featurize, float64(l.spans.timed("vision.featurize", "core.di_observe", ledgerTenant, seq, func() {
			feat = fz.Appearance(f.Pixels, entry.W, entry.H)
		}))/1e3)
		var a float64
		score = append(score, float64(l.spans.timed("conformal.knn_score", "core.di_observe", ledgerTenant, seq, func() {
			a = scorer.Score(feat)
		}))/1e3)
		scores = append(scores, a)
	}
	l.set("vision.featurize_us", median(featurize), "us", len(featurize))
	l.set("conformal.knn_score_us", median(score), "us", len(score))

	// Nanosecond-scale calls are timed a pass at a time.
	const passes = 200
	rng := stats.NewRNG(l.seed)
	ps := make([]float64, len(scores))
	var pvalue, martingale []float64
	for pass := 0; pass < passes; pass++ {
		t0 := time.Now()
		for i, a := range scores {
			ps[i] = entry.Calib.PValue(a, rng.Float64())
		}
		pvalue = append(pvalue, float64(time.Since(t0))/float64(len(scores)))
		cusum := conformal.NewCUSUM(conformal.ShiftedOdd(cfg.Kappa), cfg.Kappa/2, cfg.W)
		test := conformal.DriftTest{W: cfg.W, R: cfg.R, Mode: cfg.Mode}
		fired := 0
		t0 = time.Now()
		for _, p := range ps {
			cusum.Update(p)
			if test.Check(cusum) {
				fired++
			}
		}
		martingale = append(martingale, float64(time.Since(t0))/float64(len(ps)))
	}
	l.set("conformal.pvalue_ns", median(pvalue), "ns", passes*len(scores))
	l.set("conformal.martingale_ns", median(martingale), "ns", passes*len(scores))

	labeler := l.env.Labeler()
	var label []float64
	for seq, f := range l.frames[:1000] {
		label = append(label, float64(l.spans.timed("query.label", "core.select", ledgerTenant, seq, func() { labeler(f) }))/1e3)
	}
	l.set("query.label_us", median(label), "us", len(label))
	return nil
}

// supervision times what the supervisor and the pool add per call.
func (l *ledger) supervision() error {
	pool := parallel.New(2)
	const handoffs = 20000
	var handoff blocks
	for i := 0; i < handoffs; i++ {
		t0 := time.Now()
		pool.ForEach(2, func(int) {})
		handoff.add(time.Since(t0))
	}
	l.set("parallel.foreach_handoff_us", handoff.us(), "us", handoffs)

	pcfg := l.env.PipelineConfig(core.SelectorMSBO)
	reg := core.NewRegistry(l.env.Registry.Entries()...)
	pipe := core.NewPipeline(reg, l.env.Labeler(), pcfg)
	for _, f := range l.frames[:200] {
		pipe.Process(f)
	}
	var snapshot, restore []float64
	var snap core.PipelineSnapshot
	for i := 0; i < 2000; i++ {
		snapshot = append(snapshot, float64(l.spans.timed("core.snapshot", "sharded.process_batches_b1", ledgerTenant, i, func() { snap = pipe.Snapshot() }))/1e3)
	}
	for i := 0; i < 200; i++ {
		var rerr error
		restore = append(restore, float64(l.spans.timed("core.restore", "", ledgerTenant, i, func() {
			_, rerr = core.RestorePipeline(reg, l.env.Labeler(), pcfg, snap)
		}))/1e3)
		if rerr != nil {
			return fmt.Errorf("ledger: RestorePipeline: %w", rerr)
		}
	}
	l.set("core.snapshot_us", median(snapshot), "us", len(snapshot))
	l.set("core.restore_us", median(restore), "us", len(restore))

	sm := l.fleet(core.SelectorMSBO)
	var attach []float64
	for i := 0; i < 20; i++ {
		var slot int
		var aerr error
		attach = append(attach, float64(l.spans.timed("sharded.attach", "ingest.submit", ledgerTenant, i, func() { slot, aerr = sm.Attach(newTracer()) }))/1e6)
		if aerr != nil {
			return fmt.Errorf("ledger: Attach: %w", aerr)
		}
		if err := sm.Detach(slot); err != nil {
			return err
		}
	}
	l.set("sharded.attach_ms", median(attach), "ms", len(attach))
	return nil
}

// selection replays a drifting stream under each selector and times the
// Process calls that ran a selector or trained a model, then times the
// selectors' building blocks alone.
func (l *ledger) selection() error {
	var train []float64
	for _, sel := range []core.SelectorKind{core.SelectorMSBO, core.SelectorMSBI} {
		name := "msbo"
		if sel == core.SelectorMSBI {
			name = "msbi"
		}
		mon := videodrift.NewMonitor(l.env.Registry.Entries(), l.env.Labeler(), monitorOptions(l.env, sel, true, newTracer()))
		src := newFrameSource(findWorkload("drift"), l.seed, 0, ledgerDrift)
		durMS := make([]float64, ledgerDrift)
		selecting := make([]bool, ledgerDrift+1)
		trained := make([]bool, ledgerDrift)
		for seq := 0; seq < ledgerDrift; seq++ {
			f := wireFrame(seq, src.next())
			before := mon.Stats()
			durMS[seq] = float64(l.spans.timed("monitor.process_"+name, "", ledgerTenant, seq, func() { mon.Process(f) })) / 1e6
			after := mon.Stats()
			selecting[seq] = after.SelectingFrames > before.SelectingFrames
			trained[seq] = after.ModelsTrained > before.ModelsTrained
		}
		// The selector runs on the last frame of its window: a selecting
		// frame the next frame is not.
		var sels []float64
		for seq := 0; seq < ledgerDrift; seq++ {
			if selecting[seq] && !selecting[seq+1] {
				sels = append(sels, durMS[seq])
			}
			if trained[seq] {
				train = append(train, durMS[seq])
			}
		}
		l.set("core.select_ms_"+name, median(sels), "ms", len(sels))
		l.set("core.select_ms_"+name+"_max", maxOf(sels), "ms", len(sels))
	}
	l.set("core.train_ms", median(train), "ms", len(train))
	l.set("core.train_ms_max", maxOf(train), "ms", len(train))

	// MSBO's window scoring and the recovery path's classifier fit.
	pcfg := l.env.PipelineConfig(core.SelectorMSBO)
	entry := l.env.Registry.Entries()[0]
	labeler := l.env.Labeler()
	samples := make([]classifier.Sample, pcfg.NewModelFrames)
	for i := range samples {
		samples[i] = entry.QuerySample(l.frames[i], labeler(l.frames[i]))
	}
	var brier, fit []float64
	for i := 0; i < 50; i++ {
		brier = append(brier, float64(l.spans.timed("classifier.avg_brier", "core.select", ledgerTenant, i, func() {
			entry.Ensemble.AvgBrier(samples[:pcfg.MSBO.WT])
		}))/1e6)
	}
	ccfg := entry.Classifier.Config()
	ccfg.Epochs = pcfg.Provision.Classifier.Epochs
	for i := 0; i < 5; i++ {
		rng := stats.NewRNG(l.seed + int64(i))
		clf := classifier.New(ccfg, rng)
		fit = append(fit, float64(l.spans.timed("classifier.fit", "core.train", ledgerTenant, i, func() { clf.Fit(samples, rng) }))/1e6)
	}
	l.set("classifier.avg_brier_ms", median(brier), "ms", len(brier))
	l.set("classifier.fit_ms", median(fit), "ms", len(fit))
	return nil
}

// replication times a primary's cycle piece by piece, then whole,
// against an in-process standby over loopback.
func (l *ledger) replication() error {
	sm := l.fleet(core.SelectorMSBO)
	for i := 0; i < tenants; i++ {
		if _, err := sm.Attach(newTracer()); err != nil {
			return err
		}
	}
	// One replication interval of the replicated workload's traffic:
	// 250 ms at 300 fps/tenant.
	const perCycle = 75
	next := 0
	feed := func() error {
		batches := make([][]vidsim.Frame, tenants)
		for i := range batches {
			batches[i] = l.frames[next : next+perCycle]
		}
		next = (next + perCycle) % (len(l.frames) - perCycle)
		_, err := sm.ProcessBatches(batches)
		return err
	}
	if err := feed(); err != nil {
		return err
	}

	const cycles = 10
	var capture, encode, diff, apply, encBytes, deltaBytes []float64
	base := sm.Checkpoint()
	base.Gen = 1
	_, crcs, err := store.EncodeWithCRCs(base)
	if err != nil {
		return err
	}
	for c := 0; c < cycles; c++ {
		if err := feed(); err != nil {
			return err
		}
		var cp *store.Checkpoint
		capture = append(capture, float64(l.spans.timed("sharded.checkpoint", "replica.cycle", ledgerTenant, c, func() { cp = sm.Checkpoint() }))/1e6)
		cp.Gen = base.Gen + 1
		var full []byte
		var eerr error
		encode = append(encode, float64(l.spans.timed("store.encode", "replica.cycle", ledgerTenant, c, func() { full, eerr = store.Encode(cp) }))/1e6)
		if eerr != nil {
			return eerr
		}
		encBytes = append(encBytes, float64(len(full)))
		var d *store.Delta
		var nextCRCs []uint32
		var derr error
		diff = append(diff, float64(l.spans.timed("store.diff", "replica.cycle", ledgerTenant, c, func() {
			d, nextCRCs, derr = store.DiffCheckpoints(base, crcs, cp)
		}))/1e6)
		if errors.Is(derr, store.ErrDeltaBase) {
			// A shard trained a model that reordered the entry table: the
			// primary ships a full snapshot for this generation, and so
			// does the ledger.
			diff = diff[:len(diff)-1]
			if _, crcs, err = store.EncodeWithCRCs(cp); err != nil {
				return err
			}
			base = cp
			continue
		}
		if derr != nil {
			return fmt.Errorf("ledger: DiffCheckpoints: %w", derr)
		}
		wire, err := store.EncodeDelta(d)
		if err != nil {
			return err
		}
		deltaBytes = append(deltaBytes, float64(len(wire)))
		var aerr error
		apply = append(apply, float64(l.spans.timed("store.apply", "replica.cycle", ledgerTenant, c, func() {
			var dd *store.Delta
			if dd, aerr = store.DecodeDelta(wire); aerr == nil {
				_, _, aerr = store.ApplyDelta(base, crcs, dd)
			}
		}))/1e6)
		if aerr != nil {
			return fmt.Errorf("ledger: ApplyDelta: %w", aerr)
		}
		base, crcs = cp, nextCRCs
	}
	l.set("sharded.checkpoint_ms", median(capture), "ms", cycles)
	l.set("store.encode_ms", median(encode), "ms", cycles)
	l.set("store.encode_bytes", median(encBytes), "B", cycles)
	l.set("store.diff_ms", median(diff), "ms", cycles)
	l.set("store.delta_bytes", median(deltaBytes), "B", cycles)
	l.set("store.apply_ms", median(apply), "ms", cycles)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	standby := replica.NewStandby(replica.StandbyConfig{})
	served := make(chan struct{})
	go func() {
		defer close(served)
		standby.Serve(ln) // returns once the listener closes
	}()
	primary := replica.NewPrimary(replica.PrimaryConfig{
		Addrs:   []string{ln.Addr().String()},
		Epoch:   1,
		Capture: sm.Checkpoint,
	})
	defer func() {
		primary.Close()
		ln.Close()
		standby.Close()
		<-served
	}()
	if err := primary.Cycle(); err != nil { // the full snapshot that bases the deltas
		return fmt.Errorf("ledger: first replication cycle: %w", err)
	}
	var cycle []float64
	for c := 0; c < cycles; c++ {
		if err := feed(); err != nil {
			return err
		}
		var cerr error
		cycle = append(cycle, float64(l.spans.timed("replica.cycle", "", ledgerTenant, c, func() { cerr = primary.Cycle() }))/1e6)
		if cerr != nil {
			return fmt.Errorf("ledger: replication cycle: %w", cerr)
		}
	}
	if standby.Gen() != primary.Gen() {
		return fmt.Errorf("ledger: standby at generation %d, primary at %d", standby.Gen(), primary.Gen())
	}
	l.set("replica.cycle_ms", median(cycle), "ms", cycles)
	return nil
}
