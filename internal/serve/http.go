package serve

import (
	"cmp"
	"encoding/json"
	"fmt"
	"log"
	"net/http"
	_ "net/http/pprof"
	"strconv"
	"strings"

	"videodrift"
	"videodrift/internal/telemetry"
	"videodrift/internal/vidsim"
)

// handler routes the HTTP surface. Every route resolves the fleet per
// request, because a promotion installs one while requests are in
// flight.
func (s *Server) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", s.traced(s.handleMetrics))
	mux.HandleFunc("/snapshot", s.traced(s.handleSnapshot))
	mux.HandleFunc("/events", s.traced(s.handleEvents))
	mux.HandleFunc("/drift/", s.handleDrift)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.Handle("/debug/pprof/", http.DefaultServeMux) // where importing net/http/pprof registers
	mux.HandleFunc("/", s.handleIndex)
	return mux
}

// writeJSON answers with v as an indented JSON document.
func writeJSON(w http.ResponseWriter, r *http.Request, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		log.Printf("%s: %v", r.URL.Path, err)
	}
}

// shard resolves ?shard=k (default 0) to that shard's Monitor through
// the fleet itself; reads on a Monitor's tracer, recorder and registry
// are safe while batches run. It has answered the request when it
// returns nil: 503 without a fleet, 400 out of range, 404 for a
// detached slot (an idle-evicted tenant's).
func (s *Server) shard(w http.ResponseWriter, r *http.Request) *videodrift.Monitor {
	f := s.flt.Load()
	if f == nil {
		http.Error(w, "standby: no fleet until promotion", http.StatusServiceUnavailable)
		return nil
	}
	k, err := strconv.Atoi(cmp.Or(r.URL.Query().Get("shard"), "0"))
	if n := f.mon.Shards(); err != nil || k < 0 || k >= n {
		http.Error(w, fmt.Sprintf("shard must be in [0,%d)", n), http.StatusBadRequest)
		return nil
	}
	m := f.mon.Shard(k)
	if m == nil {
		http.Error(w, fmt.Sprintf("shard %d is detached", k), http.StatusNotFound)
	}
	return m
}

// traced wraps a telemetry endpoint with the tracer its request asks
// for: ?tenant=<id> that tenant's (kept across evictions, 404 when
// unknown), ?shard=k that shard's, neither the base tracer.
func (s *Server) traced(h func(http.ResponseWriter, *http.Request, *telemetry.Tracer)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		q := r.URL.Query()
		tr := s.base
		if id := q.Get("tenant"); id != "" {
			tr = nil
			if f := s.flt.Load(); f != nil {
				tr = f.router.Tracer(id)
			}
			if tr == nil {
				http.Error(w, fmt.Sprintf("no tenant %q", id), http.StatusNotFound)
				return
			}
		} else if q.Get("shard") != "" {
			m := s.shard(w, r)
			if m == nil {
				return
			}
			tr = m.Telemetry()
		}
		h(w, r, tr)
	}
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request, tr *telemetry.Tracer) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	fams := tr.Families()
	f := s.flt.Load()
	if f != nil {
		fams = append(fams, f.router.Stats().Families()...)
	}
	if err := telemetry.WriteFamilies(w, append(fams, s.holders(f).Families()...)); err != nil {
		log.Printf("/metrics: %v", err)
	}
}

// holders counts what the process retains, for one /metrics answer: the
// model table (on a standby the one it was last sent), the frames every
// attached shard's recorder holds, and the event rings of the base
// tracer and the attached shards'.
func (s *Server) holders(f *fleet) telemetry.Process {
	var p telemetry.Process
	p.RingEvents, p.RingCapacity = s.base.RingUse()
	if f == nil {
		if s.sb != nil {
			if cp := s.sb.Latest(); cp != nil {
				p.RegistryModels = len(cp.Entries)
			}
		}
		return p
	}
	p.RegistryModels = f.mon.Models()
	for k := 0; k < f.mon.Shards(); k++ {
		m := f.mon.Shard(k)
		if m == nil {
			continue
		}
		st := m.Forensics().State()
		var lists [][]vidsim.Held
		if !st.Pending { // a suspended pre-roll is the newest declaration's
			lists = append(lists, st.Ring)
		}
		for _, d := range st.Declarations {
			lists = append(lists, d.Frames)
		}
		for _, fs := range lists {
			p.RetainedFrames += len(fs)
			for i := range fs {
				p.RetainedBytes += fs[i].Bytes()
			}
		}
		if tr := m.Telemetry(); tr != s.base {
			events, capacity := tr.RingUse()
			p.RingEvents += events
			p.RingCapacity += capacity
		}
	}
	return p
}

func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request, tr *telemetry.Tracer) {
	w.Header().Set("Content-Type", "application/json")
	if err := tr.WriteJSONTo(w); err != nil {
		log.Printf("/snapshot: %v", err)
	}
}

// handleEvents serves the retained events, optionally only those of
// ?kind= and, for incremental polling, with a sequence number above
// ?since= (the ring is oldest-first with monotonic Seq).
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request, tr *telemetry.Tracer) {
	kind := r.URL.Query().Get("kind")
	since, err := strconv.ParseUint(cmp.Or(r.URL.Query().Get("since"), "0"), 10, 64)
	if err != nil {
		http.Error(w, "since must be an event sequence number", http.StatusBadRequest)
		return
	}
	events := []telemetry.Event{}
	for _, e := range tr.Events() {
		if (kind == "" || e.Kind.String() == kind) && e.Seq > since {
			events = append(events, e)
		}
	}
	writeJSON(w, r, map[string]any{"events": events})
}

// handleDrift serves /drift/ (the declarations the shard's forensics
// recorder retains) and /drift/<id> (one declaration's full report).
func (s *Server) handleDrift(w http.ResponseWriter, r *http.Request) {
	m := s.shard(w, r)
	if m == nil {
		return
	}
	id := strings.TrimPrefix(r.URL.Path, "/drift/")
	if id == "" {
		writeJSON(w, r, map[string]any{"declarations": m.Forensics().Declarations()})
		return
	}
	rep, err := m.Explain(id)
	if err != nil {
		http.Error(w, err.Error(), http.StatusNotFound)
		return
	}
	writeJSON(w, r, rep)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	h, code := s.Health()
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	if err := json.NewEncoder(w).Encode(h); err != nil {
		log.Printf("/healthz: %v", err)
	}
}

func (s *Server) handleIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	h, _ := s.Health()
	fmt.Fprintf(w, "driftserve: %s mode, %d shards over the %s models, %s selector\n", h.Mode, h.Shards, s.env.DS.Name, s.sel)
	fmt.Fprintln(w, "endpoints: /metrics /snapshot /events (?shard=k, ?tenant=id) /drift/ /drift/<id> (?shard=k) /healthz /debug/pprof/")
}
