package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"videodrift"
	"videodrift/internal/analysis/leakcheck"
	"videodrift/internal/core"
	"videodrift/internal/dataset"
	"videodrift/internal/experiments"
	"videodrift/internal/faults"
	"videodrift/internal/ingest"
	"videodrift/internal/query"
	"videodrift/internal/store"
	"videodrift/internal/telemetry"
	"videodrift/internal/vidsim"
)

// TestMain gates the package on the leakcheck harness: every goroutine
// a Server starts must be gone once its Shutdown has returned.
func TestMain(m *testing.M) {
	// Provision once: every test server runs the same dataset and -train,
	// and servers only read the provisioned entries.
	var mu sync.Mutex
	envs := map[string]*experiments.Env{}
	buildEnv = func(ds *dataset.Dataset, cfg experiments.Config, kind query.Kind, sel core.SelectorKind) *experiments.Env {
		mu.Lock()
		defer mu.Unlock()
		key := fmt.Sprintf("%s/%v/%d/%v", ds.Name, cfg.Scale, cfg.TrainFrames, sel)
		if envs[key] == nil {
			envs[key] = experiments.BuildEnvFor(ds, cfg, kind, sel)
		}
		return envs[key]
	}
	leakcheck.Main(m)
}

// testConfig is driftserve's flag defaults on loopback port 0, with a
// small -train and an unthrottled self-feed.
func testConfig() Config {
	return Config{
		Addr: "127.0.0.1:0", Dataset: "bdd", Scale: 0.02, Selector: "msbi", Train: 40,
		Shards: 1, Batch: 1, Ring: 4096, CheckpointEvery: 30 * time.Second,
		StallTimeout: 10 * time.Second, Forensics: true,
		MaxTenants: 64, TenantQueue: 256, IdleEvict: 2 * time.Minute,
		ReplicateEvery: time.Second, ProbeEvery: 500 * time.Millisecond, ProbeFails: 3,
	}
}

// start builds and starts a server; the test's cleanup shuts it down
// unless the test already has (stopped reports that).
func start(t *testing.T, cfg Config) *Server {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if !stopped(s) {
			if err := s.Shutdown(); err != nil {
				t.Error(err)
			}
		}
	})
	return s
}

func stopped(s *Server) bool {
	select {
	case <-s.stop:
		return true
	default:
		return false
	}
}

// reserveAddr returns a loopback address that was free a moment ago —
// for the two addresses of a replicated pair that each side must know
// before the other has bound it.
func reserveAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	return ln.Addr().String()
}

// get fetches a path from the server's HTTP address and decodes the
// JSON body into v (when non-nil), returning the status code.
func get(t *testing.T, s *Server, path string, v any) int {
	t.Helper()
	code, body := fetch(t, s, path)
	if v != nil {
		if err := json.Unmarshal([]byte(body), v); err != nil {
			t.Fatalf("GET %s: %v in %q", path, err, body)
		}
	}
	return code
}

// fetch GETs path and returns the status and the body.
func fetch(t *testing.T, s *Server, path string) (int, string) {
	t.Helper()
	resp, err := http.Get("http://" + s.Addr() + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	return resp.StatusCode, string(body)
}

// await polls cond every few milliseconds for up to a minute.
func await(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(time.Minute); !cond(); time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// tenantStream is tenant i's frames as cmd/driftfeed generates them.
func tenantStream(s *Server, i, n int) []vidsim.Frame {
	ds := *s.ds
	ds.Seed += int64(i) * 104729
	stream := ds.Stream()
	frames := make([]vidsim.Frame, n)
	for k := range frames {
		frames[k], _ = stream.Next()
	}
	return frames
}

// feed sends every tenant's frames over the wire protocol, tenant i as
// "cam-i" through its own client (with a seeded wire-fault schedule when
// faultSeed is non-zero), calling between(i, k) before tenant i's frame
// k. It returns the clients' summed stats once every frame is acked.
func feed(t *testing.T, addr string, streams [][]vidsim.Frame, faultSeed int64, between func(i, k int)) ingest.ClientStats {
	t.Helper()
	var mu sync.Mutex
	var total ingest.ClientStats
	var wg sync.WaitGroup
	for i, frames := range streams {
		wg.Add(1)
		go func(i int, frames []vidsim.Frame) {
			defer wg.Done()
			cfg := ingest.ClientConfig{Addr: addr, Tenant: fmt.Sprintf("cam-%d", i)}
			if faultSeed != 0 {
				sched := faults.GenerateNet(faultSeed+int64(i), 2*len(frames), 0.02, 0.01)
				if len(sched.Faults) == 0 {
					t.Errorf("tenant %d: empty wire-fault schedule", i)
				}
				cfg.TxFault = faults.NewNetInjector(sched).Tx
			}
			c, err := ingest.Dial(cfg)
			if err != nil {
				t.Errorf("tenant %d: %v", i, err)
				return
			}
			defer c.Close()
			for k, f := range frames {
				if between != nil {
					between(i, k)
				}
				if err := c.Send(f); err != nil {
					t.Errorf("tenant %d frame %d: %v", i, k, err)
					return
				}
			}
			if err := c.Flush(); err != nil {
				t.Errorf("tenant %d: %v", i, err)
				return
			}
			mu.Lock()
			defer mu.Unlock()
			st := c.Stats()
			total.Acked += st.Acked
			total.Retries += st.Retries
			total.Failovers += st.Failovers
		}(i, frames)
	}
	wg.Wait()
	return total
}

// replay runs the frames, as the wire delivers them, through an
// in-process Monitor configured as the server configures shard slot,
// and returns it. Its models are the full ones whatever the server's
// selector — what bench/reference.go replays over.
func replay(s *Server, tenant string, slot int, frames []vidsim.Frame) *videodrift.Monitor {
	pcfg := s.env.PipelineConfig(s.sel)
	pcfg.Seed += int64(slot)
	full := buildEnv(s.ds, s.env.Cfg, query.Count, core.SelectorMSBO)
	ref := videodrift.NewMonitor(full.Registry.Entries(), s.env.Labeler(), videodrift.Options{
		Provision: pcfg.Provision,
		Pipeline:  pcfg,
		Tracer:    telemetry.New(telemetry.Config{RingSize: s.cfg.Ring}),
		Forensics: videodrift.ForensicsConfig{Enabled: true},
	})
	for k, f := range frames {
		ref.Process(ingest.FrameFromMsg(ingest.MsgFromFrame(tenant, uint64(k), f)))
	}
	return ref
}

// viaJSON is v as a generic JSON value, for comparing what an endpoint
// served with what a replay computed.
func viaJSON(t *testing.T, v any) any {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	var out any
	if err := json.Unmarshal(b, &out); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestConfigValidate(t *testing.T) {
	ingestOn := func(c *Config) { c.IngestAddr = "127.0.0.1:0" }
	standbyOn := func(c *Config) { c.StandbyOf, c.ReplicaAddr = "127.0.0.1:9090", "127.0.0.1:0" }
	for _, tc := range []struct {
		want string
		edit func(*Config)
	}{
		{"", func(*Config) {}},
		{"", ingestOn},
		{"", standbyOn},
		{"-shards must be >= 1, got 0", func(c *Config) { c.Shards = 0 }},
		{"-batch must be >= 1, got 0", func(c *Config) { c.Batch = 0 }},
		{"-ring must be >= 1, got -1", func(c *Config) { c.Ring = -1 }},
		{"-fps must be a finite rate >= 0, got -1", func(c *Config) { c.FPS = -1 }},
		{"-frames must be >= 0, got -5", func(c *Config) { c.Frames = -5 }},
		{"-train must be >= 1, got 0", func(c *Config) { c.Train = 0 }},
		{"", func(c *Config) { ingestOn(c); c.StateDir = "d" }},
		{"-chaos drives the synthetic self-feed; with -ingest-addr, inject network faults from the driftfeed side",
			func(c *Config) { ingestOn(c); c.Chaos = 7 }},
		{"-max-tenants must be >= 1, got 0", func(c *Config) { ingestOn(c); c.MaxTenants = 0 }},
		{"-tenant-queue must be >= 1, got 0", func(c *Config) { ingestOn(c); c.TenantQueue = 0 }},
		{"-idle-evict must be >= 0, got -1s", func(c *Config) { ingestOn(c); c.IdleEvict = -time.Second }},
		{"-standby-of needs -replica-addr to accept the primary's replication stream",
			func(c *Config) { c.StandbyOf = "127.0.0.1:9090" }},
		{"-standby-of and -replicate-to are exclusive: a standby becomes a primary only by promotion",
			func(c *Config) { standbyOn(c); c.ReplicateTo = "127.0.0.1:9092" }},
		{"-state-dir does not combine with -standby-of yet: the standby's state is the replicated stream",
			func(c *Config) { standbyOn(c); c.StateDir = "d" }},
		{"-chaos drives a live fleet; a standby has none until promotion", func(c *Config) { standbyOn(c); c.Chaos = 7 }},
		{"-probe-every must be > 0, got 0s", func(c *Config) { standbyOn(c); c.ProbeEvery = 0 }},
		{"-probe-fails must be >= 1, got 0", func(c *Config) { standbyOn(c); c.ProbeFails = 0 }},
		{"-replica-addr needs -standby-of", func(c *Config) { c.ReplicaAddr = "127.0.0.1:0" }},
		{"-replicate-every must be > 0, got 0s", func(c *Config) { c.ReplicateTo = "127.0.0.1:9092"; c.ReplicateEvery = 0 }},
		{"-replica-faults needs -replicate-to", func(c *Config) { c.ReplicaFaults = 3 }},
	} {
		cfg := testConfig()
		tc.edit(&cfg)
		got := ""
		if err := cfg.Validate(); err != nil {
			got = err.Error()
		}
		if got != tc.want {
			t.Errorf("Validate() = %q, want %q", got, tc.want)
		}
	}
	if _, err := New(func() Config { c := testConfig(); c.Shards = 0; return c }()); err == nil {
		t.Error("New accepted a configuration Validate refuses")
	}
	if _, err := New(func() Config { c := testConfig(); c.Dataset = "kitti"; return c }()); err == nil {
		t.Error("New accepted an unknown dataset")
	}
}

// TestServeIngest is the retired scripts/soak.sh in process: three tenants over the
// wire protocol through a seeded fault schedule, every frame accepted
// and processed, none dropped, every tenant attached — and each
// tenant's drift declarations are those of an in-process Monitor fed
// the same frames. Under -selector msbi the server's models have no MSBO
// ensembles (the fleet the benchmark runs) while the replay's have them,
// and the two must still agree.
func TestServeIngest(t *testing.T) {
	for _, sel := range []string{"msbo", "msbi"} {
		t.Run(sel, func(t *testing.T) { testServeIngest(t, sel) })
	}
}

func testServeIngest(t *testing.T, selector string) {
	const tenants, frames = 3, 200
	cfg := testConfig()
	cfg.IngestAddr, cfg.MaxTenants, cfg.TenantQueue, cfg.Batch = "127.0.0.1:0", 8, 64, 8
	cfg.Selector = selector
	s := start(t, cfg)
	for _, e := range s.env.Registry.Entries() {
		if lean := e.Ensemble == nil; lean != (selector == "msbi") {
			t.Fatalf("-selector %s provisioned model %q with ensemble: %v", selector, e.Name, !lean)
		}
	}
	streams := make([][]vidsim.Frame, tenants)
	for i := range streams {
		streams[i] = tenantStream(s, i, frames)
	}
	if st := feed(t, s.IngestAddr(), streams, 97, nil); st.Retries == 0 {
		t.Error("the wire faults cost no retry: the schedule was not applied")
	}
	var h Health
	await(t, "the pump to drain", func() bool {
		h, _ = s.Health()
		return h.Ingest.Processed == tenants*frames
	})
	if code := get(t, s, "/healthz", &h); code != http.StatusOK || h.Status != "ok" || h.Mode != "ingest" {
		t.Errorf("/healthz: %d %q mode %q, want 200 ok ingest", code, h.Status, h.Mode)
	}
	if in := h.Ingest; in.Accepted != tenants*frames || in.Processed != in.Accepted || in.Active != tenants || in.Known != tenants {
		t.Errorf("ingest: accepted %d processed %d, %d/%d attached; want %d, %d, %d/%d",
			in.Accepted, in.Processed, in.Active, in.Known, tenants*frames, tenants*frames, tenants, tenants)
	}
	for k, sh := range h.ShardHealth {
		if sh.DroppedFrames != 0 || sh.State != videodrift.HealthOK {
			t.Errorf("shard %d: %+v", k, sh)
		}
	}
	drifts := 0
	for _, ts := range h.Ingest.Tenants {
		var i int
		fmt.Sscanf(ts.Tenant, "cam-%d", &i)
		ref := replay(s, ts.Tenant, ts.Slot, streams[i])
		var got struct {
			Declarations any `json:"declarations"`
		}
		get(t, s, fmt.Sprintf("/drift/?shard=%d", ts.Slot), &got)
		if want := viaJSON(t, ref.Forensics().Declarations()); !reflect.DeepEqual(got.Declarations, want) {
			t.Errorf("tenant %s (slot %d): served declarations\n%v\nreplayed\n%v", ts.Tenant, ts.Slot, got.Declarations, want)
		}
		drifts += len(ref.Forensics().Declarations())
	}
	if drifts == 0 {
		t.Error("no tenant drifted: the comparison exercised nothing")
	}
}

// TestTenantTelemetry: in ingest mode every tenant has its own tracer,
// and /metrics, /snapshot and /events must reach it — by slot through
// the fleet (?shard=k) and by name through the router (?tenant=id).
func TestTenantTelemetry(t *testing.T) {
	const tenants, frames = 2, 120
	cfg := testConfig()
	cfg.IngestAddr, cfg.IdleEvict = "127.0.0.1:0", 500*time.Millisecond
	s := start(t, cfg)
	streams := make([][]vidsim.Frame, tenants)
	for i := range streams {
		streams[i] = tenantStream(s, i, frames)
	}
	feed(t, s.IngestAddr(), streams, 0, nil)
	await(t, "the pump to drain", func() bool {
		h, _ := s.Health()
		return h.Ingest.Processed == tenants*frames
	})
	type events struct {
		Events []telemetry.Event `json:"events"`
	}
	h, _ := s.Health()
	declared, drifted := 0, "" // drifted: a tenant that has declared a drift
	for _, ts := range h.Ingest.Tenants {
		var decl struct {
			Declarations []struct{ ID string } `json:"declarations"`
		}
		get(t, s, fmt.Sprintf("/drift/?shard=%d", ts.Slot), &decl)
		var byTenant, byShard events
		if code := get(t, s, "/events?kind=drift_declared&tenant="+ts.Tenant, &byTenant); code != http.StatusOK {
			t.Fatalf("/events?tenant=%s: HTTP %d", ts.Tenant, code)
		}
		if code := get(t, s, fmt.Sprintf("/events?kind=drift_declared&shard=%d", ts.Slot), &byShard); code != http.StatusOK {
			t.Fatalf("/events?shard=%d: HTTP %d", ts.Slot, code)
		}
		if !reflect.DeepEqual(byTenant, byShard) {
			t.Errorf("tenant %s: ?tenant= and ?shard=%d disagree:\n%+v\n%+v", ts.Tenant, ts.Slot, byTenant, byShard)
		}
		if len(byTenant.Events) != len(decl.Declarations) {
			t.Fatalf("tenant %s: %d drift_declared events over HTTP, %d declarations retained", ts.Tenant, len(byTenant.Events), len(decl.Declarations))
		}
		for k, e := range byTenant.Events {
			if e.ID != decl.Declarations[k].ID {
				t.Errorf("tenant %s event %d: %q, declaration %q", ts.Tenant, k, e.ID, decl.Declarations[k].ID)
			}
		}
		if declared += len(decl.Declarations); len(decl.Declarations) > 0 {
			drifted = ts.Tenant
		}
		var snap telemetry.Snapshot
		get(t, s, "/snapshot?tenant="+ts.Tenant, &snap)
		if snap.Frames != frames {
			t.Errorf("tenant %s: /snapshot counts %d frames, want %d", ts.Tenant, snap.Frames, frames)
		}
	}
	if declared == 0 {
		t.Error("no tenant drifted: the test exercised nothing")
	}
	var base events
	get(t, s, "/events?kind=drift_declared", &base)
	if len(base.Events) != 0 {
		t.Errorf("the base tracer holds %d tenant drift events", len(base.Events))
	}
	for path, want := range map[string]int{
		"/events?tenant=nobody":  http.StatusNotFound,
		"/metrics?tenant=nobody": http.StatusNotFound,
		"/events?shard=7":        http.StatusBadRequest,
		"/events?shard=x":        http.StatusBadRequest,
		"/drift/?shard=7":        http.StatusBadRequest,
		"/metrics?shard=1":       http.StatusOK,
		"/snapshot?shard=1":      http.StatusOK,
		// What the benchmark's watchdog fetches before it kills a server.
		"/debug/pprof/goroutine?debug=1": http.StatusOK,
	} {
		if code := get(t, s, path, nil); code != want {
			t.Errorf("GET %s: HTTP %d, want %d", path, code, want)
		}
	}
	// The process families ride every exposition once, whichever tracer it
	// was asked for.
	mon := s.flt.Load().mon
	// The holders, counted from what each shard's recorder and tracer hand
	// out: the pump has drained, so a scrape must find the same.
	// Retained means kept: the frames the inspector read, a fraction of
	// the stream frames a pre-roll spans.
	retained, retainedBytes, spanned, ringed := 0, 0, 0, len(s.base.Events())
	for k := 0; k < tenants; k++ {
		st := mon.Shard(k).Forensics().State()
		lists := [][]vidsim.Frame{st.Ring}
		if st.Pending {
			lists = nil
		}
		for _, d := range st.Declarations {
			lists = append(lists, d.Frames)
			spanned += d.Frame - d.BaseFrame + 1
		}
		for _, fs := range lists {
			retained += len(fs)
			for _, f := range fs {
				retainedBytes += 8 * len(f.Pixels)
			}
		}
		ringed += len(mon.Shard(k).Telemetry().Events())
	}
	if retained == 0 || ringed < declared {
		t.Fatalf("%d declarations, yet %d frames retained and %d events ringed", declared, retained, ringed)
	}
	if 4*retained > spanned {
		t.Errorf("%d frames retained for declarations spanning %d: the recorders keep frames the stride skipped", retained, spanned)
	}
	samples := []string{
		fmt.Sprintf("\nvideodrift_registry_models %d\n", mon.Models()),
		fmt.Sprintf("\nvideodrift_forensics_retained_frames %d\n", retained),
		fmt.Sprintf("\nvideodrift_forensics_retained_bytes %d\n", retainedBytes),
		fmt.Sprintf("\nvideodrift_events_ring_events %d\n", ringed),
		fmt.Sprintf("\nvideodrift_events_ring_capacity %d\n", (tenants+1)*cfg.Ring),
	}
	for _, path := range []string{"/metrics", "/metrics?shard=1", "/metrics?tenant=" + drifted} {
		_, body := fetch(t, s, path)
		for _, family := range []string{"videodrift_registry_models", "videodrift_forensics_retained_frames", "videodrift_forensics_retained_bytes",
			"videodrift_events_ring_events", "videodrift_events_ring_capacity", "videodrift_go_heap_objects_bytes", "videodrift_go_gc_cycles_total",
			"videodrift_go_heap_allocs_bytes_total", "videodrift_frames_total", "ingest_tenants_known"} {
			if n := strings.Count(body, "# TYPE "+family+" "); n != 1 {
				t.Errorf("GET %s declares %s %d times, want once", path, family, n)
			}
		}
		for _, want := range samples {
			if !strings.Contains(body, want) {
				t.Errorf("GET %s: want %q in\n%s", path, want, body)
			}
		}
	}
	// An idle-evicted tenant's slot is detached, but its history is kept
	// under its name.
	await(t, "the idle tenants' eviction", func() bool {
		h, _ := s.Health()
		return h.Ingest.Evictions == tenants
	})
	if code := get(t, s, "/events?shard=0", nil); code != http.StatusNotFound {
		t.Errorf("GET /events?shard=0 after the eviction: HTTP %d, want 404", code)
	}
	var kept events
	if code := get(t, s, "/events?kind=drift_declared&tenant="+drifted, &kept); code != http.StatusOK || len(kept.Events) == 0 {
		t.Errorf("GET /events?tenant=%s after the eviction: HTTP %d, %d events", drifted, code, len(kept.Events))
	}
}

// TestServeFailover is the retired scripts/failover_soak.sh in process: a
// replicating primary and a hot standby, tenants streaming through the
// failover address list, the primary torn down mid-stream with no final
// flush once the standby holds every frame it processed. The standby
// promotes after -probe-fails failed probes, takes every tenant over at
// the position it reached, and the clients lose no frame: each tenant's
// events, declarations and metrics across the two servers are an
// uninterrupted run's.
func TestServeFailover(t *testing.T) {
	const tenants, frames, killAt = 3, 150, 60
	priHTTP, sbIngest := reserveAddr(t), reserveAddr(t)

	scfg := testConfig()
	scfg.StandbyOf, scfg.ReplicaAddr, scfg.IngestAddr = priHTTP, "127.0.0.1:0", sbIngest
	// A probe that times out counts as failed, and under the race detector
	// a busy primary is slow: leave it room, or the standby promotes early.
	scfg.ProbeEvery, scfg.ProbeFails = 250*time.Millisecond, 2
	scfg.MaxTenants, scfg.TenantQueue, scfg.Batch = 8, 64, 8
	sb := start(t, scfg)

	pcfg := testConfig()
	pcfg.Addr, pcfg.IngestAddr = priHTTP, "127.0.0.1:0"
	pcfg.ReplicateTo, pcfg.ReplicateEvery = sb.ReplicaAddr(), 20*time.Millisecond
	pcfg.MaxTenants, pcfg.TenantQueue, pcfg.Batch = 8, 64, 8
	pri := start(t, pcfg)

	var h Health
	if code := get(t, sb, "/healthz", &h); code != http.StatusOK || h.Mode != "standby" || h.Replication.Role != "standby" {
		t.Fatalf("un-promoted standby /healthz: %d mode %q role %q", code, h.Mode, h.Replication.Role)
	}
	if code := get(t, sb, "/drift/", nil); code != http.StatusServiceUnavailable {
		t.Errorf("un-promoted standby /drift/: HTTP %d, want 503", code)
	}

	// What a warm standby holds is visible before it serves a frame.
	await(t, "the standby's first generation", func() bool { return sb.sb.Latest() != nil })
	want := fmt.Sprintf("\nvideodrift_registry_models %d\n", len(sb.sb.Latest().Entries))
	if _, body := fetch(t, sb, "/metrics"); !strings.Contains(body, want) {
		t.Errorf("un-promoted standby /metrics: want %q in\n%s", want, body)
	}

	streams := make([][]vidsim.Frame, tenants)
	for i := range streams {
		streams[i] = tenantStream(pri, i, frames)
	}
	// Every client stops before frame killAt until the primary is dead,
	// so the kill lands mid-stream for all of them.
	reached, killed := make(chan struct{}), make(chan struct{})
	var once sync.Once
	go func() {
		defer close(killed)
		<-reached
		// Once the standby holds a generation with every tenant at killAt:
		// kill -9, as far as one process can do it to itself — no drain,
		// no final generation.
		for deadline := time.Now().Add(time.Minute); ; time.Sleep(5 * time.Millisecond) {
			if cp := sb.sb.Latest(); cp != nil && len(cp.Shards) == tenants &&
				!slices.ContainsFunc(cp.Shards, func(sh store.ShardState) bool { return sh.Next != killAt }) {
				break
			}
			if time.Now().After(deadline) {
				t.Error("the standby never held a generation with every tenant at the kill point")
				break
			}
		}
		if err := pri.halt(false); err != nil {
			t.Error(err)
		}
	}()
	st := feed(t, pri.IngestAddr()+","+sbIngest, streams, 0, func(i, k int) {
		if k == killAt {
			once.Do(func() { close(reached) })
			<-killed
		}
	})
	once.Do(func() { close(reached) }) // a feed that failed early must not strand the killer
	<-killed
	if st.Acked != tenants*frames {
		t.Errorf("clients got %d frames acked, want %d", st.Acked, tenants*frames)
	}
	if st.Failovers == 0 {
		t.Error("no client recorded a failover")
	}
	await(t, "the promoted pump to drain", func() bool {
		h, _ = sb.Health()
		return h.Ingest != nil && h.Ingest.Processed == h.Ingest.Accepted && h.Ingest.Accepted > 0
	})
	if code := get(t, sb, "/healthz", &h); code != http.StatusOK || h.Mode != "ingest" || h.Replication.Role != "promoted" {
		t.Errorf("promoted standby /healthz: %d mode %q role %q", code, h.Mode, h.Replication.Role)
	}
	if in := h.Ingest; in.Active != tenants || in.Accepted != tenants*(frames-killAt) || in.Dups != 0 {
		t.Errorf("promoted standby: %d tenants attached, %d frames accepted, %d dups", in.Active, in.Accepted, in.Dups)
	}
	for k, sh := range h.ShardHealth {
		if sh.DroppedFrames != 0 {
			t.Errorf("promoted shard %d dropped %d frames", k, sh.DroppedFrames)
		}
	}
	drifts := 0
	for _, ts := range h.Ingest.Tenants {
		var i int
		fmt.Sscanf(ts.Tenant, "cam-%d", &i)
		got, want := served(t, sb, ts.Tenant, pri), replayed(t, sb, ts.Tenant, ts.Slot, streams[i])
		if !reflect.DeepEqual(got, want) {
			t.Errorf("tenant %s: across the failover\n%+v\nuninterrupted\n%+v", ts.Tenant, got, want)
		}
		drifts += want.Stats.DriftsDetected
	}
	if drifts == 0 {
		t.Error("no tenant drifted: the comparison exercised nothing")
	}
	if got := sb.IngestAddr(); got != sbIngest {
		t.Errorf("promoted standby ingests on %q, want %q", got, sbIngest)
	}
}

// TestPromotionFailureVisible: a promotion severs replication and fences
// the old primary before it builds the fleet, so one whose fleet cannot
// be built (here: a shard referencing an entry the checkpoint lacks)
// must not keep answering 200 "standby".
func TestPromotionFailureVisible(t *testing.T) {
	cfg := testConfig()
	cfg.StandbyOf, cfg.ReplicaAddr = reserveAddr(t), "127.0.0.1:0" // nobody listens: every probe fails
	cfg.ProbeEvery, cfg.ProbeFails = 5*time.Millisecond, 2
	s := start(t, cfg)
	var h Health
	if code := get(t, s, "/healthz", &h); code != http.StatusOK || h.Status != "standby" {
		t.Fatalf("with nothing replicated: %d %q, want 200 standby", code, h.Status)
	}
	bad := &store.Checkpoint{Gen: 1, Shards: []store.ShardState{{Registry: []int{3}}}}
	if err := s.sb.Seed(bad, nil); err != nil {
		t.Fatal(err)
	}
	await(t, "the failed promotion to show", func() bool {
		return get(t, s, "/healthz", &h) == http.StatusServiceUnavailable
	})
	if h.Status != "promotion_failed" || !strings.Contains(h.Error, "references entry 3") || h.Mode != "standby" {
		t.Errorf("/healthz after a failed promotion: %+v", h)
	}
}

// TestSelectorMismatch: a -selector msbi server provisions and trains
// models without MSBO ensembles, and MSBO over such models could select
// none of them. So the state an MSBI server leaves — in its -state-dir,
// on its standby — is refused by a -selector msbo server with the cause
// spelt out, at start-up for a warm restart and in /healthz for a
// promotion; the state an MSBO server leaves serves an MSBI one.
func TestSelectorMismatch(t *testing.T) {
	const cause = "models were provisioned under -selector msbi"
	life := func(selector string) (Config, *store.Checkpoint) {
		cfg := testConfig()
		cfg.Selector, cfg.Frames, cfg.StateDir = selector, 60, t.TempDir()
		s := runSelfFeed(t, cfg)
		if err := s.Shutdown(); err != nil {
			t.Fatal(err)
		}
		cp := s.flt.Load().mon.Checkpoint()
		cp.Gen = 1
		cfg.Frames = 120
		return cfg, cp
	}
	// standby starts a standby of a dead primary that holds cp, and waits
	// for the promotion to end one way or the other.
	standby := func(selector string, cp *store.Checkpoint) (h Health, code int) {
		cfg := testConfig()
		cfg.Selector, cfg.Frames = selector, 120
		cfg.StandbyOf, cfg.ReplicaAddr = reserveAddr(t), "127.0.0.1:0"
		cfg.ProbeEvery, cfg.ProbeFails = 5*time.Millisecond, 2
		s := start(t, cfg)
		if err := s.sb.Seed(cp, nil); err != nil {
			t.Fatal(err)
		}
		await(t, "the promotion", func() bool {
			code = get(t, s, "/healthz", &h)
			return h.Status != "standby"
		})
		return h, code
	}

	msbi, lean := life("msbi")
	msbi.Selector = "msbo"
	s, err := New(msbi)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err == nil || !strings.Contains(err.Error(), cause) {
		t.Errorf("-selector msbo over an msbi server's -state-dir: Start returned %v, want an error holding %q", err, cause)
		if err == nil {
			s.Shutdown()
		}
	}
	if h, code := standby("msbo", lean); code != http.StatusServiceUnavailable || h.Status != "promotion_failed" || !strings.Contains(h.Error, cause) {
		t.Errorf("-selector msbo standby of an msbi primary: %d %+v, want 503 promotion_failed holding %q", code, h, cause)
	}
	if h, code := standby("msbi", lean); code != http.StatusOK || h.Replication.Role != "promoted" {
		t.Errorf("-selector msbi standby of an msbi primary: %d %+v, want 200 promoted", code, h)
	}

	msbo, full := life("msbo")
	msbo.Selector = "msbi"
	if second := runSelfFeed(t, msbo); second.boot == nil {
		t.Error("-selector msbi over an msbo server's -state-dir cold-started")
	}
	if h, code := standby("msbi", full); code != http.StatusOK || h.Replication.Role != "promoted" {
		t.Errorf("-selector msbi standby of an msbo primary: %d %+v, want 200 promoted", code, h)
	}
}

// outcome is what a run left for one tenant: the events its tracer
// rings, less what differs between runs of one stream (sequence numbers,
// clock readings, checkpoint saves); its retained declarations; its
// metrics.
type outcome struct {
	Events []telemetry.Event
	Decls  any
	Stats  videodrift.Metrics
}

// ringed is what tr rings for outcome.
func ringed(tr *telemetry.Tracer) []telemetry.Event {
	var out []telemetry.Event
	for _, e := range tr.Events() {
		if e.Kind != telemetry.KindCheckpointSaved {
			e.Seq, e.TimeUnixNano = 0, 0
			out = append(out, e)
		}
	}
	return out
}

// served is tenant's outcome on s, whose events follow those it rang on
// the servers s took over from, earliest first.
func served(t *testing.T, s *Server, tenant string, before ...*Server) outcome {
	t.Helper()
	var o outcome
	for _, srv := range append(before, s) {
		o.Events = append(o.Events, ringed(srv.flt.Load().router.Tracer(tenant))...)
	}
	f := s.flt.Load()
	for _, ts := range f.router.Stats().Tenants {
		if ts.Tenant == tenant {
			o.Decls = viaJSON(t, f.mon.Shard(ts.Slot).Forensics().Declarations())
			o.Stats = f.mon.ShardStats(ts.Slot)
			return o
		}
	}
	t.Fatalf("no tenant %q", tenant)
	return o
}

// replayed is the outcome of replay.
func replayed(t *testing.T, s *Server, tenant string, slot int, frames []vidsim.Frame) outcome {
	t.Helper()
	ref := replay(s, tenant, slot, frames)
	return outcome{ringed(ref.Telemetry()), viaJSON(t, ref.Forensics().Declarations()), ref.Stats()}
}

// runSelfFeed runs a self-feed server until its -frames budget is
// reached and returns it, still serving.
func runSelfFeed(t *testing.T, cfg Config) *Server {
	t.Helper()
	s := start(t, cfg)
	await(t, "the frame budget", func() bool {
		h, _ := s.Health()
		return !h.Streaming
	})
	if h, _ := s.Health(); h.Frames != int64(cfg.Frames) {
		t.Fatalf("stopped at frame %d, want %d", h.Frames, cfg.Frames)
	}
	return s
}

// TestServeWarmRestart: a life cut short and a second life
// warm-restarted from its state directory leave every tenant — events,
// declarations, metrics — exactly as one uninterrupted life does. The
// self-fed tenants' first life shuts down; the wire tenants' is killed
// (no final flush) right after a checkpoint, and their windowed clients
// carry on against the second, whose Sync answers hold each tenant's
// restored position, so every frame is processed exactly once.
func TestServeWarmRestart(t *testing.T) {
	t.Run("selffeed", func(t *testing.T) {
		const total, cut = 600, 250
		cfg := testConfig()
		cfg.Shards, cfg.Frames = 2, total
		whole := runSelfFeed(t, cfg)
		if whole.flt.Load().mon.Stats().DriftsDetected == 0 {
			t.Fatal("the uninterrupted life never drifted")
		}

		cfg.StateDir, cfg.Frames = t.TempDir(), cut
		first := runSelfFeed(t, cfg)
		if err := first.Shutdown(); err != nil {
			t.Fatal(err)
		}
		cfg.Frames = total
		second := runSelfFeed(t, cfg)
		if second.boot == nil || second.boot.Frames != cut/2 {
			t.Fatalf("the second life did not resume the first's final checkpoint: %+v", second.boot)
		}
		for k := range cfg.Shards {
			if got, want := served(t, second, selfTenant(k), first), served(t, whole, selfTenant(k)); !reflect.DeepEqual(got, want) {
				t.Errorf("tenant %s: two lives\n%+v\none life\n%+v", selfTenant(k), got, want)
			}
		}
		var h Health
		if code := get(t, second, "/healthz", &h); code != http.StatusOK || h.StateDir != cfg.StateDir || h.Mode != "selfdrive" {
			t.Errorf("/healthz: %d, mode %q, state_dir %q", code, h.Mode, h.StateDir)
		}
	})

	t.Run("ingest", func(t *testing.T) {
		const tenants, frames, cut = 3, 200, 90
		cfg := testConfig()
		cfg.IngestAddr, cfg.StateDir, cfg.Batch = reserveAddr(t), t.TempDir(), 8
		first := start(t, cfg)
		streams := make([][]vidsim.Frame, tenants)
		for i := range streams {
			streams[i] = tenantStream(first, i, frames)
		}
		// Once every client has sent its first cut frames: a checkpoint that
		// holds them all, kill -9, and a second life on the same -state-dir
		// and address.
		var paused sync.WaitGroup
		paused.Add(tenants)
		resumed := make(chan struct{})
		var second *Server
		var restored []uint64
		go func() {
			defer close(resumed)
			paused.Wait()
			for {
				if h, _ := first.Health(); h.Ingest.Processed == tenants*cut {
					break
				}
				time.Sleep(5 * time.Millisecond)
			}
			first.saveCheckpoint("test")
			if err := first.halt(false); err != nil {
				t.Error(err)
				return
			}
			var err error
			if second, err = New(cfg); err == nil {
				err = second.Start()
			}
			if err != nil {
				t.Error(err)
				return
			}
			for i := range tenants {
				restored = append(restored, second.flt.Load().router.Position(fmt.Sprintf("cam-%d", i)))
			}
		}()
		st := feed(t, cfg.IngestAddr, streams, 0, func(i, k int) {
			if k == cut {
				paused.Done()
				<-resumed
			}
		})
		if second == nil {
			t.FailNow()
		}
		defer func() {
			if err := second.Shutdown(); err != nil {
				t.Error(err)
			}
		}()
		if second.boot == nil {
			t.Fatal("the second life cold-started")
		}
		for i, at := range restored {
			if at != cut {
				t.Errorf("cam-%d restored at %d, want %d", i, at, cut)
			}
		}
		if st.Acked != tenants*frames {
			t.Errorf("clients got %d frames acked, want %d", st.Acked, tenants*frames)
		}
		var h Health
		await(t, "the second life's pump to drain", func() bool {
			h, _ = second.Health()
			return h.Ingest.Processed == tenants*(frames-cut)
		})
		if in := h.Ingest; in.Accepted != in.Processed || in.Dups != 0 || in.NackedSeq != 0 || in.Active != tenants || h.Mode != "ingest" {
			t.Errorf("the second life: %+v, mode %q", in, h.Mode)
		}
		drifts := 0
		for _, ts := range h.Ingest.Tenants {
			var i int
			fmt.Sscanf(ts.Tenant, "cam-%d", &i)
			got, want := served(t, second, ts.Tenant, first), replayed(t, second, ts.Tenant, ts.Slot, streams[i])
			if !reflect.DeepEqual(got, want) {
				t.Errorf("tenant %s: two lives\n%+v\none life\n%+v", ts.Tenant, got, want)
			}
			drifts += want.Stats.DriftsDetected
		}
		if drifts == 0 {
			t.Error("no tenant drifted: the comparison exercised nothing")
		}
	})
}

// TestAdoptUnnamedShards: a checkpoint written before shards recorded
// their tenant resumes as it did then — the self-feed continues each
// shard as its stream k, while behind -ingest-addr its tenants re-attach
// afresh — and a named shard is its tenant's either way.
func TestAdoptUnnamedShards(t *testing.T) {
	cp := &store.Checkpoint{Shards: []store.ShardState{{}, {Tenant: "cam-7", Next: 12}}}
	cp.Shards[0].Pipeline.Metrics.Frames = 40
	tenants := func(cp *store.Checkpoint) (out []string) {
		for _, sh := range cp.Shards {
			out = append(out, fmt.Sprintf("%s@%d", sh.Tenant, sh.Next))
		}
		return out
	}
	if got := tenants((&Server{}).adopt(cp)); !reflect.DeepEqual(got, []string{"self-0@40", "cam-7@12"}) {
		t.Errorf("self-fed: %v", got)
	}
	if got := tenants((&Server{cfg: Config{IngestAddr: "x"}}).adopt(cp)); !reflect.DeepEqual(got, []string{"cam-7@12"}) {
		t.Errorf("-ingest-addr: %v", got)
	}
	if cp.Shards[0].Tenant != "" || len(cp.Shards) != 2 {
		t.Error("adopt modified its argument")
	}
}

// TestShutdownFlushes is the SIGTERM path: nothing was replicated or
// persisted while the server ran, and after Shutdown the standby holds,
// and the state directory's newest checkpoint is, the exact stopping
// point — and no goroutine of either server is left.
func TestShutdownFlushes(t *testing.T) {
	scfg := testConfig()
	scfg.StandbyOf, scfg.ReplicaAddr, scfg.ProbeFails = reserveAddr(t), "127.0.0.1:0", 1<<30
	sb := start(t, scfg)

	cfg := testConfig()
	cfg.Shards, cfg.FPS = 2, 2000
	cfg.StateDir, cfg.CheckpointEvery = t.TempDir(), time.Hour
	cfg.ReplicateTo, cfg.ReplicateEvery = sb.ReplicaAddr(), time.Hour
	s := start(t, cfg)
	await(t, "some frames", func() bool {
		h, _ := s.Health()
		return h.Frames >= 100
	})
	if h, _ := sb.Health(); h.Replication.Applied != 0 {
		t.Fatalf("the standby applied %d generations before the flush", h.Replication.Applied)
	}
	if err := s.Shutdown(); err != nil {
		t.Fatal(err)
	}
	h, _ := s.Health()
	perShard := h.Frames / 2
	if got := sb.sb.Latest(); got == nil || got.Frames != perShard {
		t.Errorf("the standby holds %+v, want the stopping point, frame %d", got, perShard)
	}
	st, err := store.Open(cfg.StateDir)
	if err != nil {
		t.Fatal(err)
	}
	if cp, _, err := st.LoadLatest(); err != nil || cp.Frames != perShard || cp.Gen != 1 {
		t.Errorf("the final checkpoint: %+v, %v; want frame %d of generation 1", cp, err, perShard)
	}
	if _, err := http.Get("http://" + s.Addr() + "/healthz"); err == nil {
		t.Error("the HTTP listener outlived Shutdown")
	}
	if err := sb.Shutdown(); err != nil {
		t.Fatal(err)
	}
	if err := leakcheck.Check(); err != nil {
		t.Error(err)
	}
}

// fill sets every field under v to a non-zero value, so that no
// omitempty hides a key.
func fill(v reflect.Value) {
	switch v.Kind() {
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
		fill(v.Elem())
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			fill(v.Field(i))
		}
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 1, 1))
		fill(v.Index(0))
	case reflect.String:
		v.SetString("x")
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Float64:
		v.SetFloat(1)
	default:
		switch {
		case v.CanInt():
			v.SetInt(1)
		case v.CanUint():
			v.SetUint(1)
		default:
			panic("fill: unhandled kind " + v.Kind().String())
		}
	}
}

// TestHealthShape pins the /healthz schema its readers depend on —
// bench/server.go, `drifttool health`, scripts/smoke.sh through it: the
// keys of a fully populated document, and which of them a fleet, an
// ingestion tier and a replication block report even at zero.
func TestHealthShape(t *testing.T) {
	keys := func(h Health) map[string]bool {
		out := map[string]bool{}
		var walk func(prefix string, v any)
		walk = func(prefix string, v any) {
			switch v := v.(type) {
			case map[string]any:
				for k, e := range v {
					out[prefix+k] = true
					walk(prefix+k+".", e)
				}
			case []any:
				for _, e := range v {
					walk(prefix, e)
				}
			}
		}
		walk("", viaJSON(t, h))
		return out
	}
	always := strings.Fields(`
		status mode streaming shards active_shards frames quarantined_frames training_failures
		shard_health shard_health.state shard_health.stalled shard_health.restarts shard_health.dropped
		ingest ingest.known_tenants ingest.active_tenants ingest.accepted ingest.processed ingest.dups
		ingest.nacked_full ingest.nacked_seq ingest.nacked_limit ingest.nacked_malformed
		ingest.attaches ingest.evictions ingest.pumps ingest.pumped_frames ingest.pumps_inline ingest.tenants
		ingest.tenants.tenant ingest.tenants.slot ingest.tenants.queued ingest.tenants.queue_cap
		ingest.tenants.accepted ingest.tenants.processed ingest.tenants.dups
		ingest.tenants.nacked_full ingest.tenants.nacked_seq
		replication replication.role replication.epoch replication.generation
		replication.lag_generations replication.applied`)
	whenSet := strings.Fields(`
		error shard_health.detached state_dir last_checkpoint_age_seconds checkpoint_interval_seconds
		replication.primary replication.last_cycle_ms replication.last_capture_ms replication.last_cycle_bytes
		replication.cycles replication.cycle_overruns replication.fulls replication.deltas
		replication.full_bytes replication.delta_bytes replication.fenced_by_epoch`)
	check := func(name string, got map[string]bool, want []string) {
		for _, k := range want {
			if !got[k] {
				t.Errorf("%s /healthz document lacks %q", name, k)
			}
			delete(got, k)
		}
		for k := range got {
			t.Errorf("%s /healthz document has %q, which the golden list does not name", name, k)
		}
	}
	check("a zero-valued", keys(Health{
		ShardHealth: []videodrift.ShardHealth{{}},
		Ingest:      &ingest.Stats{Tenants: []ingest.TenantStats{{}}},
		Replication: &Replication{},
	}), always)
	var full Health
	fill(reflect.ValueOf(&full).Elem())
	check("a fully populated", keys(full), append(always, whenSet...))
}
