package videodrift_test

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
	"sync/atomic"
	"testing"
	_ "unsafe" // go:linkname

	"videodrift"
	"videodrift/internal/faults"
	"videodrift/internal/ingest"
	"videodrift/internal/replica"
	"videodrift/internal/store"
	"videodrift/internal/vidsim"
)

// The spine lives here: a fleet fed batched, from borrowed buffers, over
// the wire, through worker panics and corrupt frames, restarted from disk
// at another worker count, replicated and failed over, with tenants coming
// and going, must stay the serial run — one Monitor per attached tenant
// over the full models, seeded as its slot. After every op, check holds it
// to that oracle. It is an external test package because the wire op needs
// internal/ingest, which imports the facade.

// poisonFreed is internal/ingest's borrow-contract tripwire: while set,
// every pixel buffer the router frees is filled with NaN. The wire op runs
// with it on.
//
//go:linkname poisonFreed videodrift/internal/ingest.poisonFreed
var poisonFreed atomic.Bool

type opKind uint8

const (
	opFeed    opKind = iota // f<slot>:<frames>/<batch>[L]: a slot (* every one) its next frames, L from lent buffers
	opRestart               // r<workers>: Checkpoint → store on disk → ResumeSharded
	opShip                  // s[T]: a replication cycle to a loopback standby, T torn
	opPromote               // p<workers>: kill the primary, promote the standby, resume
	opAttach                // a: a named tenant on the lowest free slot
	opDetach                // d<slot>
	opFault                 // x<slot>+<k>P|C: a worker panic or a corrupt frame k frames past the slot's next
	opWire                  // w<slot>:<frames>[N]: a slot its next frames through a loopback server, N under wire faults
	numOps
)

const opLetters = "frspadxw"

type op struct {
	kind opKind
	a    [3]int
	flag bool
}

// parseProgram reads "<msbi|msbo> <full|lean> <ops>", skipping what is not
// an op; lean models run only under MSBI, which reads no ensemble.
func parseProgram(s string) (sel videodrift.Selector, lean bool, ops []op) {
	f := append(strings.Fields(s), "", "")
	if sel, lean = videodrift.MSBI, f[1] == "lean"; f[0] == "msbo" {
		sel, lean = videodrift.MSBO, false
	}
	for _, tok := range f[2:] {
		body := strings.TrimRight(tok, "LTPCN")
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
var equivScripts = sync.OnceValue(func() [][]vidsim.Frame {
	seg := func(c vidsim.Condition, n int, seed int64) []vidsim.Frame {
		return vidsim.GenerateTrainingStride(videodrift.FacadeCond(c), 16, 16, n, 1, seed)
	}
	return [][]vidsim.Frame{
		slices.Concat(seg(vidsim.Day(), 60, 1), seg(vidsim.Night(), 110, 2), seg(vidsim.SnowCond(), 130, 3), seg(vidsim.RainCond(), 130, 4)),
		slices.Concat(seg(vidsim.Night(), 50, 5), seg(vidsim.RainCond(), 130, 6), seg(vidsim.Day(), 110, 7), seg(vidsim.SnowCond(), 130, 8)),
		slices.Concat(seg(vidsim.Day(), 90, 9), seg(vidsim.SnowCond(), 130, 10), seg(vidsim.Night(), 110, 11), seg(vidsim.Day(), 100, 12)),
	}
})

// equivLabels is every script frame's label by its pixels, as rendered and
// as the wire delivers it: what the fleet and the oracles keep of a frame
// carries pixels only (videodrift.PixelLabeler).
var equivLabels = sync.OnceValue(func() map[string]int {
	labels := map[string]int{}
	for _, script := range equivScripts() {
		for _, f := range script {
			l := videodrift.FacadeLabeler(f)
			labels[videodrift.PixelKey(f.Pixels)] = l
			labels[videodrift.PixelKey(ingest.FrameFromMsg(ingest.MsgFromFrame("", 0, f)).Pixels)] = l
		}
	}
	return labels
})

// tenant models a stream: its script, slot at attach (its seed), next index,
// the table it was attached over and the restarts its shard must report.
type tenant struct {
	ord, seed, next, restarts int
	base                      []*videodrift.Model
}

func (tn *tenant) name() string { return fmt.Sprintf("cam-%d", tn.ord) }
func (tn *tenant) start() int   { return 17 * (tn.ord + 1) }

// left is how many frames of its script the tenant has not been sent.
func (tn *tenant) left() int { return tn.start() + len(equivScripts()[tn.ord%3]) - tn.next }

// link is a primary→standby pair on loopback and the model of it.
type link struct {
	sb              *replica.Standby
	ln              net.Listener
	prim            *replica.Primary
	cur             *store.Checkpoint
	gen, held, tear int
	torn            bool
	snap            []*tenant                    // the slots at generation held, the standby's
	live            map[uint32]*videodrift.Model // the oracle's models at the last capture
	fed             int                          // frames fed since the last capture
	fulls, deltas   uint64
}

type harness struct {
	link
	t                     *testing.T
	opts                  videodrift.Options
	label                 videodrift.Labeler  // the fleet's and the oracles'
	slots                 []*tenant           // by fleet slot, nil when detached
	base                  []*videodrift.Model // what an attach builds on: the full models, then a resumed table
	full, models          []*videodrift.Model // the oracle's provisioned models and the fleet's (full, or lean)
	attaches              int
	epoch                 uint64
	sm                    *videodrift.ShardedMonitor
	inj                   *faults.Injector
	armed, corrupt, wired map[[2]int]bool // panics yet to fire by (slot, index); corrupt and wire-fed frames by (tenant, index)
	oracles               map[int]*videodrift.Monitor
	keys                  map[*videodrift.Model]uint32
	ckpts                 *videodrift.CheckpointStore
	lend                  videodrift.Lender
	events                [][]videodrift.Event
}

// runProgram drives a program, returning the ops that acted and final Stats.
func runProgram(t *testing.T, sel videodrift.Selector, lean bool, ops []op) (acted []op, _ videodrift.Metrics) {
	opts := videodrift.Defaults(videodrift.FacadeDim, videodrift.FacadeClasses)
	opts.Pipeline.Selector, opts.Pipeline.NewModelFrames, opts.Provision = sel, 48, opts.Provision.For(sel)
	opts.Provision.VAEEpochs, opts.Provision.SampleCount, opts.Provision.Classifier.Epochs = 2, 60, 10
	opts.Provision.EnsembleSize = min(opts.Provision.EnsembleSize, 2)
	opts.Forensics = videodrift.ForensicsConfig{Enabled: true, Window: 16, Keep: 2}
	ckpts, err := videodrift.OpenStore(t.TempDir())
	h := &harness{t: t, opts: opts, full: videodrift.CkptModels(), models: videodrift.CkptModels(), epoch: 1, ckpts: ckpts,
		armed: map[[2]int]bool{}, corrupt: map[[2]int]bool{}, wired: map[[2]int]bool{}, oracles: map[int]*videodrift.Monitor{}, keys: map[*videodrift.Model]uint32{}}
	h.must(err == nil, "open store: %v", err)
	if h.base = h.full; lean {
		h.models = videodrift.LeanCkptModels()
	}
	h.label = videodrift.PixelLabeler(t, equivLabels())
	h.sm = videodrift.NewDynamicSharded(h.models, h.label, videodrift.ShardedOptions{Options: opts, Workers: 2, MaxRestarts: math.MaxInt32})
	defer h.link.close()
	for i, o := range ops {
		if h.apply(o) {
			acted = append(acted, o)
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
		tn := &tenant{ord: h.attaches, seed: slot, base: h.base}
		h.slots[slot], h.attaches, tn.next = tn, h.attaches+1, tn.start()
		got, err := h.sm.AttachTenant(tn.name(), uint64(tn.next), nil)
		h.must(err == nil && got == slot, "attach landed on slot %d (%v), want %d", got, err, slot)
		h.oracles[tn.ord] = h.oracle(tn)
	default:
		if at == nil {
			return false
		}
		s, tn := at[0], h.slots[at[0]]
		switch x := tn.next + o.a[1]; {
		case o.kind == opWire:
			return h.wire(s, o.a[1], o.flag)
		case o.kind == opFault && o.flag:
			// The supervisor reads its injector at every frame: re-arm it.
			h.armed[[2]int{s, x}] = true
			var sched faults.Schedule
			for k := range h.armed {
				sched.Faults = append(sched.Faults, faults.Fault{Shard: k[0], Frame: k[1], Kind: faults.KindWorkerPanic})
			}
			h.inj = faults.NewInjector(sched)
			h.sm.SetFaults(h.inj)
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

// frame is tn's frame at stream index x. A corrupt one declares a shape
// the models do not have, which the wire carries and the fleet
// quarantines; one that went over the wire is what the wire delivered.
func (h *harness) frame(tn *tenant, x int) vidsim.Frame {
	f := equivScripts()[tn.ord%3][x-tn.start()]
	if f.Index = x; h.corrupt[[2]int{tn.ord, x}] {
		f.W, f.H = 2*f.W, f.H/2
	}
	if h.wired[[2]int{tn.ord, x}] {
		f = ingest.FrameFromMsg(ingest.MsgFromFrame(tn.name(), uint64(x), f))
	}
	return f
}

func (h *harness) oracle(tn *tenant) *videodrift.Monitor {
	opts := h.opts
	opts.Pipeline.Seed += int64(tn.seed)
	return videodrift.NewMonitor(tn.base, h.label, opts)
}

// served hands tn's oracle frame f, which the fleet has been fed, and
// counts the restart a panic armed at it cost slot s.
func (h *harness) served(s int, tn *tenant, f vidsim.Frame) videodrift.Event {
	if h.armed[[2]int{s, f.Index}] {
		delete(h.armed, [2]int{s, f.Index})
		tn.restarts++
	}
	return h.oracles[tn.ord].Process(f)
}

// feed sends each slot its next n frames, at most b a slot a call, and holds
// every event to the tenant's oracle fed the same frame.
func (h *harness) feed(slots []int, n, b int, lent bool) (acted bool) {
	left, total := make([]int, len(h.slots)), 0
	for _, s := range slots {
		left[s] = min(n, h.slots[s].left())
		total += left[s]
	}
	for h.fed, acted = h.fed+total, total > 0; total > 0; {
		batches := make([][]vidsim.Frame, len(h.slots))
		for _, s := range slots {
			for k := min(b, left[s]); k > 0; k-- {
				batches[s] = append(batches[s], h.frame(h.slots[s], h.slots[s].next+len(batches[s])))
			}
			left[s], total = left[s]-len(batches[s]), total-len(batches[s])
		}
		in := batches
		if lent {
			in = h.lend.Lend(batches)
		}
		events, err := h.sm.ProcessBatchesInto(in, h.events)
		h.must(err == nil, "ProcessBatchesInto: %v", err)
		h.lend.Poison()
		for _, s := range slots {
			tn := h.slots[s]
			for j, f := range batches[s] {
				want := h.served(s, tn, f)
				h.must(events[s][j] == want, "slot %d frame %d: event %+v, the oracle's %+v", s, f.Index, events[s][j], want)
			}
			tn.next += len(batches[s])
		}
		h.events = events
	}
	return acted
}

// wire sends slot s its next n frames as a server receives them: a fresh
// Router over the live fleet, behind an ingest.Server on loopback, fed by
// an ingest.Client. A new client numbers from 0, so it first resends the
// prefix the slot already has, which the router must acknowledge as
// duplicates and feed none of. Under faults the transmissions from the
// slot's next frame on run under a wire-fault schedule — corrupted bytes
// and torn writes — that costs retries and nothing else. The oracle is fed
// what the wire delivers.
func (h *harness) wire(s, n int, faulty bool) bool {
	tn := h.slots[s]
	if n = min(n, tn.left()); n == 0 {
		return false
	}
	for x := tn.next; x < tn.next+n; x++ {
		h.wired[[2]int{tn.ord, x}] = true
	}
	var inj *faults.NetInjector
	if faulty {
		// Seeded by position, and a fault is due within the first n sends.
		var sched faults.NetSchedule
		for seed := int64(tn.next); len(sched.Faults) == 0 || sched.Faults[0].Msg >= n; seed++ {
			sched = faults.GenerateNet(seed, 3*n, 0.1, 0.05)
		}
		inj = faults.NewNetInjector(sched)
	}
	poisonFreed.Store(true)
	defer poisonFreed.Store(false)
	r := ingest.NewRouter(h.sm, ingest.Config{})
	srv := ingest.NewServer(r, ingest.ServerConfig{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	h.must(err == nil, "listen: %v", err)
	accepting := make(chan struct{})
	go func() { defer close(accepting); srv.Serve(ln) }()
	shut := sync.OnceFunc(func() {
		srv.Close()
		<-accepting
	})
	defer shut()
	hot, tx := false, 0
	c, err := ingest.Dial(ingest.ClientConfig{Addr: ln.Addr().String(), Tenant: tn.name(), TxFault: func(_ int, b []byte) ([]byte, bool) {
		if !hot {
			return b, false
		}
		tx++
		return inj.Tx(tx-1, b)
	}})
	h.must(err == nil, "dial: %v", err)
	for x := 0; x < tn.next+n && err == nil; x++ {
		f := vidsim.Frame{W: 1, H: 1, Pixels: []float64{0}} // before the script: any frame
		if hot = x >= tn.next; x >= tn.start() {
			f = h.frame(tn, x)
		}
		err = c.Send(f)
	}
	err = firstErr(err, c.Close())
	shut()
	_, perr := r.Pump() // a last drain, as a server shutting down makes
	st, cs := r.Stats(), c.Stats()
	h.must(err == nil && perr == nil, "slot %d over the wire: send %v, pump %v", s, err, perr)
	h.must(st.Accepted == int64(n) && st.Processed == int64(n) && cs.Acked == int64(tn.next+n) && faulty == (cs.Retries > 0) && (faulty || cs.Nacks+cs.Reconnects+st.NackedSeq == 0),
		"slot %d over the wire: the router accepted %d and fed %d of %d new frames, the client saw %d of %d confirmed with %+v (faults %v)",
		s, st.Accepted, st.Processed, n, cs.Acked, tn.next+n, cs, faulty)
	for ; n > 0; n-- {
		h.served(s, tn, h.frame(tn, tn.next))
		tn.next++
		h.fed++
	}
	return true
}

// firstErr is the first of two errors.
func firstErr(a, b error) error {
	if a != nil {
		return a
	}
	return b
}

// resume builds the fleet from cp as a restarted or promoted server does:
// the attached tenants move to slots in order, on fresh shards.
func (h *harness) resume(cp *store.Checkpoint, workers int) {
	var slots []*tenant
	for _, s := range h.pick(len(h.slots), true) {
		h.slots[s].restarts, slots = 0, append(slots, h.slots[s])
	}
	sm, err := videodrift.ResumeSharded(cp, h.label, videodrift.ShardedOptions{Options: h.opts, Workers: workers, BeforeProcess: h.inj.BeforeProcess, TrainFault: h.inj.TrainFault, MaxRestarts: math.MaxInt32})
	h.must(err == nil, "ResumeSharded: %v", err)
	h.slots, h.sm, h.base = slots, sm, append(slices.Clone(h.full), cp.Entries[len(h.full):]...)
}

// key names a model by its bytes; a provisioned full model goes by the
// fleet's copy of it, which over lean models has no ensemble.
func (h *harness) key(e *videodrift.Model) uint32 {
	if i := slices.Index(h.full, e); i >= 0 {
		e = h.models[i]
	}
	if _, ok := h.keys[e]; !ok {
		crcs, err := store.EntryCRCs(&store.Checkpoint{Entries: []*videodrift.Model{e}})
		h.must(err == nil, "encode %s: %v", e.Name, err)
		h.keys[e] = crcs[0]
	}
	return h.keys[e]
}

// live is the oracle's model table: the base and the attached registries.
func (h *harness) live() map[uint32]*videodrift.Model {
	out := map[uint32]*videodrift.Model{}
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
func (h *harness) expected(cp *store.Checkpoint) *store.Checkpoint {
	want, at := &store.Checkpoint{}, map[uint32]int{}
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
		h.must(bytes.Equal(videodrift.GobBytes(h.t, g), videodrift.GobBytes(h.t, w)), "%s: slot %d checkpoints registry %v and pipeline and forensics state unlike the oracle's %v", at, s, g.Registry, w.Registry)
		gd, gr := videodrift.Declared(h.t, got)
		wd, wr := videodrift.Declared(h.t, o)
		h.must(bytes.Equal(videodrift.GobBytes(h.t, gd), videodrift.GobBytes(h.t, wd)) && bytes.Equal(videodrift.GobBytes(h.t, gr), videodrift.GobBytes(h.t, wr)),
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
		h.must(got.Gen == h.cur.Gen && got.Epoch == h.cur.Epoch && got.Frames == h.cur.Frames && slices.EqualFunc(got.Entries, h.cur.Entries, func(a, b *videodrift.Model) bool { return h.key(a) == h.key(b) }) &&
			bytes.Equal(videodrift.GobBytes(h.t, got.Shards), videodrift.GobBytes(h.t, h.cur.Shards)), "gen %d: the standby's gen %d differs from the capture", h.gen, got.Gen)
		if delta {
			added := got.Entries[len(was.Entries):]
			blobs, err := store.Encode(&store.Checkpoint{Entries: added})
			h.must(err == nil && len(added) == len(live)-len(h.link.live) && st.LastBytes <= 2*h.fed*(8*videodrift.FacadeDim+256)+len(blobs)+64<<10,
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
	h.oracles = map[int]*videodrift.Monitor{}
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
// train and quarantine, run every ordered pair of op kinds under each
// selector and model set, and send frames over a clean and a faulty wire
// under each.
func TestFleetEquivalence(t *testing.T) {
	type combo struct {
		pairs map[[2]opKind]bool
		wires map[bool]bool
	}
	data, err := os.ReadFile("testdata/equiv_corpus.txt")
	combos, left, sum := map[string]combo{}, 0, videodrift.Metrics{}
	for _, c := range []string{"msbi full", "msbi lean", "msbo full"} {
		combos[c] = combo{map[[2]opKind]bool{}, map[bool]bool{}}
	}
	for _, line := range strings.Split(string(data), "\n") {
		if name, prog, _ := strings.Cut(line, " "); err == nil && name != "" && name[0] != '#' {
			left++
			t.Run(name, func(t *testing.T) {
				sel, lean, ops := parseProgram(prog)
				acted, st := runProgram(t, sel, lean, ops)
				sum.ModelsSelected, sum.ModelsTrained, sum.QuarantinedFrames = sum.ModelsSelected+st.ModelsSelected, sum.ModelsTrained+st.ModelsTrained, sum.QuarantinedFrames+st.QuarantinedFrames
				seen := combos[strings.Join(strings.Fields(prog)[:2], " ")]
				for i, o := range acted {
					if i > 0 {
						seen.pairs[[2]opKind{acted[i-1].kind, o.kind}] = true
					}
					if o.kind == opWire {
						seen.wires[o.flag] = true
					}
				}
				left--
			})
		}
	}
	for name, seen := range combos {
		if err != nil || left == 0 && (len(seen.pairs) < int(numOps*numOps) || len(seen.wires) < 2) {
			t.Errorf("%s: the corpus (%v) runs %d of the %d ordered pairs of op kinds, wires %v", name, err, len(seen.pairs), numOps*numOps, seen.wires)
		}
	}
	if left == 0 && (sum.ModelsSelected == 0 || sum.ModelsTrained == 0 || sum.QuarantinedFrames == 0) {
		t.Errorf("the corpus ends with fleets that selected, trained or quarantined nothing: %+v", sum)
	}
}

// FuzzFleetEquivalence runs fuzzed programs of up to 16 ops of 48 frames.
func FuzzFleetEquivalence(f *testing.F) {
	f.Add("msbi lean a a f*:40/8 x0+3P s w1:20 sT r2 a f*:16/16 x2+1C w2:12N p1 d0 f*:20/1")
	f.Fuzz(func(t *testing.T, prog string) {
		sel, lean, ops := parseProgram(prog)
		for i := range ops {
			ops[i].a[1] = min(ops[i].a[1], 48)
		}
		_, _ = runProgram(t, sel, lean, ops[:min(len(ops), 16)])
	})
}
