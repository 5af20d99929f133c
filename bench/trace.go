package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one timed interval at a layer boundary. Spans of one frame
// share (Tenant, Seq); Parent names the span that caused this one.
type span struct {
	Name    string `json:"name"`
	Parent  string `json:"parent,omitempty"`
	Tenant  string `json:"tenant"`
	Seq     int    `json:"seq"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// spanLog keeps spans in memory until the run ends. A nil log records
// nothing, so untraced code pays one pointer compare per call site.
type spanLog struct {
	t0 time.Time
	// perName caps how many spans of one name are kept (0 keeps all): the
	// ledger times millions of calls, and the trace is for reading, not
	// for statistics.
	perName int
	kept    map[string]int
	spans   []span
}

func newSpanLog(perName int) *spanLog {
	return &spanLog{t0: time.Now(), perName: perName, kept: map[string]int{}}
}

func (l *spanLog) add(name, parent, tenant string, seq int, start, end time.Time) {
	if l == nil {
		return
	}
	if l.perName > 0 {
		if l.kept[name] >= l.perName {
			return
		}
		l.kept[name]++
	}
	l.spans = append(l.spans, span{name, parent, tenant, seq, int64(start.Sub(l.t0)), int64(end.Sub(l.t0))})
}

// timed runs fn, records its span and returns how long it took.
func (l *spanLog) timed(name, parent, tenant string, seq int, fn func()) time.Duration {
	start := time.Now()
	fn()
	end := time.Now()
	l.add(name, parent, tenant, seq, start, end)
	return end.Sub(start)
}

func (l *spanLog) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(map[string]any{"spans": l.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// clientSpans turns the traced drive's timestamps into spans: per frame,
// frame ⊃ loadgen.next, ingest.send_ack, ingest.queue_wait.
func (l *spanLog) clientSpans(r *driveResult) {
	at := func(ns int64) time.Time { return r.clock.Add(time.Duration(ns)) }
	for i, t := range r.tenants {
		v := r.verdicts(i)
		for k := range t.acked {
			if v[k] < 0 {
				continue
			}
			seq := k + 1
			start := t.due[k]
			if t.genStart[k] < start {
				start = t.genStart[k]
			}
			l.add("frame", "", t.id, seq, at(start), at(v[k]))
			l.add("loadgen.next", "frame", t.id, seq, at(t.genStart[k]), at(t.genEnd[k]))
			l.add("ingest.send_ack", "frame", t.id, seq, at(t.sent[k]), at(t.acked[k]))
			l.add("ingest.queue_wait", "frame", t.id, seq, at(t.acked[k]), at(v[k]))
		}
	}
}
