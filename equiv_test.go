package videodrift

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"net"
	"os"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"

	"videodrift/internal/faults"
	"videodrift/internal/replica"
	"videodrift/internal/store"
	"videodrift/internal/vidsim"
)

// The spine lives here: a fleet fed batched, from borrowed buffers, through
// worker panics and corrupt frames, restarted from disk at another worker
// count, replicated and failed over, with tenants coming and going, must
// stay the serial run — one Monitor per attached tenant over the full
// models, seeded as its slot. After every op, check holds it to that oracle.

type opKind uint8

const (
	opFeed    opKind = iota // f<slot>:<frames>/<batch>[L]: a slot (* every one) its next frames, L from lent buffers
	opRestart               // r<workers>: Checkpoint → store on disk → ResumeSharded
	opShip                  // s[T]: a replication cycle to a loopback standby, T torn
	opPromote               // p<workers>: kill the primary, promote the standby, resume
	opAttach                // a: a named tenant on the lowest free slot
	opDetach                // d<slot>
	opFault                 // x<slot>+<k>P|C: a worker panic or a corrupt frame k frames past the slot's next
	numOps
)

const opLetters = "frspadx"

type op struct {
	kind opKind
	a    [3]int
	flag bool
}

// parseProgram reads "<msbi|msbo> <full|lean> <ops>", skipping what is not
// an op; lean models run only under MSBI, which reads no ensemble.
func parseProgram(s string) (sel Selector, lean bool, ops []op) {
	f := append(strings.Fields(s), "", "")
	if sel, lean = MSBI, f[1] == "lean"; f[0] == "msbo" {
		sel, lean = MSBO, false
	}
	for _, tok := range f[2:] {
		body := strings.TrimRight(tok, "LTPC")
		o := op{kind: opKind(strings.IndexByte(opLetters, (body + "?")[0])), flag: len(body) < len(tok) && !strings.HasSuffix(tok, "C")}
		if o.kind >= numOps {
			continue
		}
		for i, n := range strings.FieldsFunc(body[1:], func(r rune) bool { return strings.ContainsRune(":/+", r) }) {
			if v, _ := strconv.Atoi(strings.ReplaceAll(n, "*", "999")); i < 3 {
				o.a[i] = min(max(v, 0), 999)
			}
		}
		ops = append(ops, o)
	}
	return sel, lean, ops
}

// equivScripts are the streams, tenant n's n%3: drifts, selections, trainings.
var equivScripts = sync.OnceValue(func() [][]Frame {
	seg := func(c Condition, n int, seed int64) []Frame {
		return vidsim.GenerateTrainingStride(facadeCond(c), 16, 16, n, 1, seed)
	}
	return [][]Frame{
		slices.Concat(seg(vidsim.Day(), 60, 1), seg(vidsim.Night(), 110, 2), seg(vidsim.SnowCond(), 130, 3), seg(vidsim.RainCond(), 130, 4)),
		slices.Concat(seg(vidsim.Night(), 50, 5), seg(vidsim.RainCond(), 130, 6), seg(vidsim.Day(), 110, 7), seg(vidsim.SnowCond(), 130, 8)),
		slices.Concat(seg(vidsim.Day(), 90, 9), seg(vidsim.SnowCond(), 130, 10), seg(vidsim.Night(), 110, 11), seg(vidsim.Day(), 100, 12)),
	}
})

// tenant models a stream: its script, slot at attach (its seed), next index,
// the table it was attached over and the restarts its shard must report.
type tenant struct {
	ord, seed, next, restarts int
	base                      []*Model
}

func (tn *tenant) name() string { return fmt.Sprintf("cam-%d", tn.ord) }
func (tn *tenant) start() int   { return 1000*tn.ord + 17 }

// link is a primary→standby pair on loopback and the model of it.
type link struct {
	sb              *replica.Standby
	ln              net.Listener
	prim            *replica.Primary
	cur             *Checkpoint
	gen, held, tear int
	torn            bool
	snap            []*tenant         // the slots at generation held, the standby's
	live            map[uint32]*Model // the oracle's models at the last capture
	fed             int               // frames fed since the last capture
	fulls, deltas   uint64
}

type harness struct {
	link
	t              *testing.T
	opts           Options
	slots          []*tenant // by fleet slot, nil when detached
	base           []*Model  // what an attach builds on: the full models, then a resumed table
	full, models   []*Model  // the oracle's provisioned models and the fleet's (full, or lean)
	attaches       int
	epoch          uint64
	sm             *ShardedMonitor
	inj            *faults.Injector
	armed, corrupt map[[2]int]bool // panics yet to fire by (slot, index); corrupt frames by (tenant, index)
	oracles        map[int]*Monitor
	keys           map[*Model]uint32
	ckpts          *CheckpointStore
	lend           lender
	events         [][]Event
}

// runProgram drives a program, returning the ops that acted and final Stats.
func runProgram(t *testing.T, sel Selector, lean bool, ops []op) (acted []opKind, _ Metrics) {
	opts := Defaults(facadeDim, facadeClasses)
	opts.Pipeline.Selector, opts.Pipeline.NewModelFrames, opts.Provision = sel, 48, opts.Provision.For(sel)
	opts.Provision.VAEEpochs, opts.Provision.SampleCount, opts.Provision.Classifier.Epochs = 2, 60, 10
	opts.Provision.EnsembleSize = min(opts.Provision.EnsembleSize, 2)
	opts.Forensics = ForensicsConfig{Enabled: true, Window: 16, Keep: 2}
	ckpts, err := OpenStore(t.TempDir())
	h := &harness{t: t, opts: opts, full: getCkptModels(), models: getCkptModels(), epoch: 1, ckpts: ckpts,
		armed: map[[2]int]bool{}, corrupt: map[[2]int]bool{}, oracles: map[int]*Monitor{}, keys: map[*Model]uint32{}}
	h.must(err == nil, "open store: %v", err)
	if h.base = h.full; lean {
		h.models = getLeanCkptModels()
	}
	h.sm = NewDynamicSharded(h.models, facadeLabeler, ShardedOptions{Options: opts, Workers: 2, MaxRestarts: math.MaxInt32})
	defer h.link.close()
	for i, o := range ops {
		if h.apply(o) {
			acted = append(acted, o.kind)
		}
		h.check(fmt.Sprintf("op %d (%c %v %v)", i, opLetters[o.kind], o.a, o.flag))
	}
	return acted, h.sm.Stats()
}

func (h *harness) must(ok bool, format string, args ...any) {
	if !ok {
		h.t.Fatalf(format, args...)
	}
}

// pick is slot i (mod the slot count) if attached, or, when all and i is
// past the last slot, every attached slot.
func (h *harness) pick(i int, all bool) (at []int) {
	for s, tn := range h.slots {
		if tn != nil && (s == i%len(h.slots) || all && i >= len(h.slots)) {
			at = append(at, s)
		}
	}
	return at
}

func (h *harness) apply(o op) bool {
	switch at := h.pick(o.a[0], o.kind == opFeed); o.kind {
	case opFeed:
		return h.feed(at, o.a[1], max(o.a[2], 1), o.flag)
	case opRestart:
		_, err1 := h.ckpts.Save(h.sm.Checkpoint())
		cp, _, err2 := h.ckpts.LoadLatest()
		h.must(err1 == nil && err2 == nil, "save: %v, load: %v", err1, err2)
		h.link.close()
		h.resume(cp, o.a[0])
	case opShip:
		h.ship(o.flag)
	case opPromote:
		h.promote(o.a[0])
	case opAttach:
		slot := slices.Index(h.slots, nil)
		if slot < 0 {
			slot, h.slots = len(h.slots), append(h.slots, nil)
		}
		tn := &tenant{ord: h.attaches, seed: slot, next: 1000*h.attaches + 17, base: h.base}
		h.slots[slot], h.attaches = tn, h.attaches+1
		got, err := h.sm.AttachTenant(tn.name(), uint64(tn.next), nil)
		h.must(err == nil && got == slot, "attach landed on slot %d (%v), want %d", got, err, slot)
		h.oracles[tn.ord] = h.oracle(tn)
	default:
		if at == nil {
			return false
		}
		s, tn := at[0], h.slots[at[0]]
		switch x := tn.next + o.a[1]; {
		case o.kind == opFault && o.flag:
			// The supervisor reads its injector at every frame: re-arm it.
			h.armed[[2]int{s, x}] = true
			var sched faults.Schedule
			for k := range h.armed {
				sched.Faults = append(sched.Faults, faults.Fault{Shard: k[0], Frame: k[1], Kind: faults.KindWorkerPanic})
			}
			h.inj = faults.NewInjector(sched)
			h.sm.faults = h.inj
		case o.kind == opFault:
			h.corrupt[[2]int{tn.ord, x}] = true
		default:
			h.slots[s] = nil
			delete(h.oracles, tn.ord)
			h.must(h.sm.Detach(s) == nil, "detach %d failed", s)
		}
	}
	return true
}

// frame is tn's frame at stream index x; a corrupt one has the wrong width.
func (h *harness) frame(tn *tenant, x int) Frame {
	f := equivScripts()[tn.ord%3][x-tn.start()]
	f.Index, f.W = x, f.W+boolInt(h.corrupt[[2]int{tn.ord, x}])
	return f
}

func (h *harness) oracle(tn *tenant) *Monitor {
	opts := h.opts
	opts.Pipeline.Seed += int64(tn.seed)
	return NewMonitor(tn.base, facadeLabeler, opts)
}

// feed sends each slot its next n frames, at most b a slot a call, and holds
// every event to the tenant's oracle fed the same frame.
func (h *harness) feed(slots []int, n, b int, lent bool) (acted bool) {
	left, total := make([]int, len(h.slots)), 0
	for _, s := range slots {
		left[s] = min(n, h.slots[s].start()+len(equivScripts()[h.slots[s].ord%3])-h.slots[s].next)
		total += left[s]
	}
	for h.fed, acted = h.fed+total, total > 0; total > 0; {
		batches := make([][]Frame, len(h.slots))
		for _, s := range slots {
			for k := min(b, left[s]); k > 0; k-- {
				batches[s] = append(batches[s], h.frame(h.slots[s], h.slots[s].next+len(batches[s])))
			}
			left[s], total = left[s]-len(batches[s]), total-len(batches[s])
		}
		in := batches
		if lent {
			in = h.lend.lend(batches)
		}
		events, err := h.sm.ProcessBatchesInto(in, h.events)
		h.must(err == nil, "ProcessBatchesInto: %v", err)
		h.lend.poison()
		for _, s := range slots {
			tn := h.slots[s]
			for j, f := range batches[s] {
				want := h.oracles[tn.ord].Process(f)
				h.must(events[s][j] == want, "slot %d frame %d: event %+v, the oracle's %+v", s, f.Index, events[s][j], want)
				if h.armed[[2]int{s, f.Index}] {
					delete(h.armed, [2]int{s, f.Index})
					tn.restarts++
				}
			}
			tn.next += len(batches[s])
		}
		h.events = events
	}
	return acted
}

// resume builds the fleet from cp as a restarted or promoted server does:
// the attached tenants move to slots in order, on fresh shards.
func (h *harness) resume(cp *Checkpoint, workers int) {
	var slots []*tenant
	for _, s := range h.pick(len(h.slots), true) {
		h.slots[s].restarts, slots = 0, append(slots, h.slots[s])
	}
	sm, err := ResumeSharded(cp, facadeLabeler, ShardedOptions{Options: h.opts, Workers: workers, Faults: h.inj, MaxRestarts: math.MaxInt32})
	h.must(err == nil, "ResumeSharded: %v", err)
	h.slots, h.sm, h.base = slots, sm, append(slices.Clone(h.full), cp.Entries[len(h.full):]...)
}

// key names a model by its bytes; a provisioned full model goes by the
// fleet's copy of it, which over lean models has no ensemble.
func (h *harness) key(e *Model) uint32 {
	if i := slices.Index(h.full, e); i >= 0 {
		e = h.models[i]
	}
	if _, ok := h.keys[e]; !ok {
		crcs, err := store.EntryCRCs(&Checkpoint{Entries: []*Model{e}})
		h.must(err == nil, "encode %s: %v", e.Name, err)
		h.keys[e] = crcs[0]
	}
	return h.keys[e]
}

// live is the oracle's model table: the base and the attached registries.
func (h *harness) live() map[uint32]*Model {
	out := map[uint32]*Model{}
	for _, e := range h.base {
		out[h.key(e)] = e
	}
	for _, s := range h.pick(len(h.slots), true) {
		for _, e := range h.oracles[h.slots[s].ord].Entries() {
			out[h.key(e)] = e
		}
	}
	return out
}

// expected is the shards cp must hold: each attached tenant's oracle's own,
// its registry numbered in cp's table.
func (h *harness) expected(cp *Checkpoint) *Checkpoint {
	want, at := &Checkpoint{}, map[uint32]int{}
	for j, e := range cp.Entries {
		at[h.key(e)] = j
	}
	for _, s := range h.pick(len(h.slots), true) {
		tn, o := h.slots[s], h.oracles[h.slots[s].ord]
		sh := o.Checkpoint().Shards[0]
		for k, e := range o.Entries() {
			ref, ok := at[h.key(e)]
			h.must(ok, "tenant %s's oracle holds %s and the fleet does not", tn.name(), e.Name)
			sh.Registry[k] = ref
		}
		sh.Tenant, sh.Next = tn.name(), uint64(tn.next)
		want.Shards = append(want.Shards, sh)
		want.Frames = max(want.Frames, int64(o.Stats().Frames))
	}
	return want
}

// check holds the fleet's slots, table and, per tenant, position, stats,
// deployment, restarts, shard state, declarations and reports to the oracle.
func (h *harness) check(at string) {
	cp, health, n, attached, frames := h.sm.Checkpoint(), h.sm.Health(), len(h.live()), h.pick(len(h.slots), true), 0
	h.must(h.sm.Shards() == len(h.slots) && h.sm.Active() == len(attached) && len(cp.Shards) == len(attached),
		"%s: %d slots, %d active, %d checkpointed; want %d and %d", at, h.sm.Shards(), h.sm.Active(), len(cp.Shards), len(h.slots), len(attached))
	want := h.expected(cp)
	h.must(h.sm.Models() == n && len(cp.Entries) == n && cp.Frames == want.Frames,
		"%s: %d models (%d checkpointed, %d frames), the oracle %d (%d frames)", at, h.sm.Models(), len(cp.Entries), cp.Frames, n, want.Frames)
	for k, s := range attached {
		tn, got, o, g, w := h.slots[s], h.sm.Shard(s), h.oracles[h.slots[s].ord], cp.Shards[k], want.Shards[k]
		name, next := h.sm.Tenant(s)
		h.must(name == tn.name() && next == uint64(tn.next) && h.sm.ShardStats(s) == o.Stats() && got.Current() == o.Current() && health.Shards[s].Restarts == tn.restarts,
			"%s: slot %d serves %q at %d with %+v deploying %q after %d restarts; want %q at %d with the oracle's %+v deploying %q after %d panics",
			at, s, name, next, h.sm.ShardStats(s), got.Current(), health.Shards[s].Restarts, tn.name(), tn.next, o.Stats(), o.Current(), tn.restarts)
		h.must(bytes.Equal(gobBytes(h.t, g), gobBytes(h.t, w)), "%s: slot %d checkpoints registry %v and pipeline and forensics state unlike the oracle's %v", at, s, g.Registry, w.Registry)
		gd, gr := declared(h.t, got)
		wd, wr := declared(h.t, o)
		h.must(bytes.Equal(gobBytes(h.t, gd), gobBytes(h.t, wd)) && bytes.Equal(gobBytes(h.t, gr), gobBytes(h.t, wr)),
			"%s: slot %d declarations or their Explain reports differ from the oracle's", at, s)
		frames += o.Stats().Frames
	}
	h.must(h.sm.Stats().Frames == frames, "%s: the fleet counts %d frames, its tenants' oracles %d", at, h.sm.Stats().Frames, frames)
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

func (h *harness) dial() {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	h.must(err == nil, "listen: %v", err)
	h.ln, h.sb = ln, replica.NewStandby(replica.StandbyConfig{})
	go h.sb.Serve(h.ln)
	h.prim = replica.NewPrimary(replica.PrimaryConfig{Addrs: []string{h.ln.Addr().String()}, Epoch: h.epoch,
		Capture: func() *store.Checkpoint { return h.cur },
		TxFault: func(_ int, b []byte) ([]byte, bool) {
			if h.tear == 0 {
				return b, false
			}
			h.tear--
			return b[:len(b)/2], true
		}})
}

func (l *link) close() {
	if l.prim != nil {
		l.prim.Close()
		l.ln.Close()
		l.sb.Close()
	}
	*l = link{}
}

// ship runs a replication cycle, a torn one tearing both attempts. A full
// goes at first contact, after a missed generation or when a detached
// tenant's model left the table; a delta holds the oracle's new models and
// a frame's bytes per kept copy of a fed frame. The standby holds the capture.
func (h *harness) ship(torn bool) {
	if h.prim == nil {
		h.dial()
	}
	if h.gen++; !torn {
		h.held, h.snap = h.gen, slices.Clone(h.slots)
		for _, s := range h.pick(len(h.slots), true) {
			cp := *h.slots[s]
			h.snap[s] = &cp
		}
	}
	prev, was := h.cur, h.sb.Latest()
	h.cur, h.tear = h.sm.Checkpoint(), 2*boolInt(torn)
	err := h.prim.Cycle()
	h.must(torn == (err != nil), "gen %d: cycle returned %v, torn %v", h.gen, err, torn)
	live, shrank := h.live(), false
	for k := range h.link.live {
		shrank = shrank || live[k] == nil
	}
	delta := !torn && prev != nil && !h.torn && !shrank
	h.fulls, h.deltas = h.fulls+uint64(boolInt(!torn && !delta)), h.deltas+uint64(boolInt(delta))
	st := h.prim.Stats()
	h.must(st.Fulls == h.fulls && st.Deltas == h.deltas, "gen %d: primary shipped %d fulls and %d deltas, want %d and %d", h.gen, st.Fulls, st.Deltas, h.fulls, h.deltas)
	if got := h.sb.Latest(); !torn {
		h.must(got.Gen == h.cur.Gen && got.Epoch == h.cur.Epoch && got.Frames == h.cur.Frames && slices.EqualFunc(got.Entries, h.cur.Entries, func(a, b *Model) bool { return h.key(a) == h.key(b) }) &&
			bytes.Equal(gobBytes(h.t, got.Shards), gobBytes(h.t, h.cur.Shards)), "gen %d: the standby's gen %d differs from the capture", h.gen, got.Gen)
		if delta {
			added := got.Entries[len(was.Entries):]
			blobs, err := store.Encode(&Checkpoint{Entries: added})
			h.must(err == nil && len(added) == len(live)-len(h.link.live) && st.LastBytes <= 2*h.fed*(8*facadeDim+256)+len(blobs)+64<<10,
				"gen %d: a %d-byte delta of %d new models for the oracle's %d and %d fed frames", h.gen, st.LastBytes, len(added), len(live)-len(h.link.live), h.fed)
		}
	}
	h.link.live, h.fed, h.torn = live, 0, torn
}

// promote resumes the fleet from the standby's generation, to which the model
// rolls back and each oracle replays; the old primary's epoch is fenced.
func (h *harness) promote(workers int) {
	if h.held == 0 {
		h.ship(false)
	}
	l, old := h.link, h.sm
	h.slots, h.link = l.snap, link{}
	defer l.close()
	l.prim.Close()
	cp, epoch, err := l.sb.Promote("harness")
	h.must(err == nil && cp.Gen == uint64(l.held) && epoch == h.epoch+1, "promoted at gen %d epoch %d (%v), want gen %d epoch %d", cp.Gen, epoch, err, l.held, h.epoch+1)
	h.oracles = map[int]*Monitor{}
	for _, s := range h.pick(len(h.slots), true) {
		tn := h.slots[s]
		h.oracles[tn.ord] = h.oracle(tn)
		for x := tn.start(); x < tn.next; x++ {
			h.oracles[tn.ord].Process(h.frame(tn, x))
		}
	}
	h.resume(cp, workers)
	stale := replica.NewPrimary(replica.PrimaryConfig{Addrs: []string{l.ln.Addr().String()}, Epoch: h.epoch,
		Capture: func() *store.Checkpoint { return old.Checkpoint() }})
	defer stale.Close()
	err1, err2 := stale.Cycle(), stale.Cycle()
	h.must(errors.Is(err1, replica.ErrFenced) && errors.Is(err2, replica.ErrFenced), "a primary back at epoch %d cycled with %v, then %v; want ErrFenced for good", h.epoch, err1, err2)
	h.epoch = epoch
}

// TestFleetEquivalence runs testdata/equiv_corpus.txt, which must select,
// train and quarantine, and run every ordered pair of op kinds under each
// selector and model set.
func TestFleetEquivalence(t *testing.T) {
	data, err := os.ReadFile("testdata/equiv_corpus.txt")
	pairs, left, sum := map[string]map[[2]opKind]bool{"msbi full": {}, "msbi lean": {}, "msbo full": {}}, 0, Metrics{}
	for _, line := range strings.Split(string(data), "\n") {
		if name, prog, _ := strings.Cut(line, " "); err == nil && name != "" && name[0] != '#' {
			left++
			t.Run(name, func(t *testing.T) {
				sel, lean, ops := parseProgram(prog)
				acted, st := runProgram(t, sel, lean, ops)
				sum.ModelsSelected, sum.ModelsTrained, sum.QuarantinedFrames = sum.ModelsSelected+st.ModelsSelected, sum.ModelsTrained+st.ModelsTrained, sum.QuarantinedFrames+st.QuarantinedFrames
				for i, seen := 1, pairs[strings.Join(strings.Fields(prog)[:2], " ")]; i < len(acted); i++ {
					seen[[2]opKind{acted[i-1], acted[i]}] = true
				}
				left--
			})
		}
	}
	for combo, seen := range pairs {
		if err != nil || left == 0 && len(seen) < int(numOps*numOps) {
			t.Errorf("%s: the corpus (%v) runs %d of the %d ordered pairs of op kinds", combo, err, len(seen), numOps*numOps)
		}
	}
	if left == 0 && (sum.ModelsSelected == 0 || sum.ModelsTrained == 0 || sum.QuarantinedFrames == 0) {
		t.Errorf("the corpus ends with fleets that selected, trained or quarantined nothing: %+v", sum)
	}
}

// FuzzFleetEquivalence runs fuzzed programs of up to 16 ops of 48 frames.
func FuzzFleetEquivalence(f *testing.F) {
	f.Add("msbi lean a a f*:40/8 x0+3P s f1:20/4L sT r2 a f*:16/16 x2+1C p1 d0 f*:20/1")
	f.Fuzz(func(t *testing.T, prog string) {
		sel, lean, ops := parseProgram(prog)
		for i := range ops {
			ops[i].a[1] = min(ops[i].a[1], 48)
		}
		_, _ = runProgram(t, sel, lean, ops[:min(len(ops), 16)])
	})
}
