package serve

import (
	"net/http"
	"time"

	"videodrift"
	"videodrift/internal/ingest"
	"videodrift/internal/replica"
)

// Health is the /healthz document — liveness plus degradation state —
// in every mode; `drifttool health`, the benchmark and scripts/smoke.sh
// read it. Fields a mode has nothing to say about are left out.
type Health struct {
	// Status is the fleet's state ("ok", "degraded", "failed") or one of
	// "stalled", "fenced", "standby" and "promotion_failed".
	Status string `json:"status"`
	// Error is why Status is "promotion_failed".
	Error string `json:"error,omitempty"`
	// Mode is "ingest" (a fleet serves the wire's tenants) or "standby".
	Mode         string `json:"mode"`
	Shards       int    `json:"shards"`
	ActiveShards int    `json:"active_shards"`
	Frames       int64  `json:"frames"`
	Quarantined  int    `json:"quarantined_frames"`
	TrainFails   int    `json:"training_failures"`
	// ShardHealth is the supervisor's view of each shard slot.
	ShardHealth []videodrift.ShardHealth `json:"shard_health,omitempty"`
	Ingest      *ingest.Stats            `json:"ingest,omitempty"`
	Replication *Replication             `json:"replication,omitempty"`
	// With -state-dir: where checkpoints go and how fresh the last is.
	StateDir      string  `json:"state_dir,omitempty"`
	CkptAge       float64 `json:"last_checkpoint_age_seconds,omitempty"`
	CkptIntervalS float64 `json:"checkpoint_interval_seconds,omitempty"`
}

// Replication is this process's side of the replication stream.
type Replication struct {
	// Role is "primary", "standby" or, after a promotion, "promoted".
	Role string `json:"role"`
	// Primary is the address an un-promoted standby probes.
	Primary    string `json:"primary,omitempty"`
	Epoch      uint64 `json:"epoch"`
	Generation uint64 `json:"generation"`
	// LagGenerations is a primary's distance to its slowest standby;
	// Applied the generations a standby has applied.
	LagGenerations int    `json:"lag_generations"`
	Applied        uint64 `json:"applied"`
	// What replication costs a primary: a full after first contact is a
	// resync, an overrun a cycle longer than -replicate-every.
	*replica.PrimaryStats
	LastCycleMS   float64 `json:"last_cycle_ms,omitempty"`
	LastCaptureMS float64 `json:"last_capture_ms,omitempty"`
	// FencedByEpoch is set once a standby promoted past this primary.
	FencedByEpoch uint64 `json:"fenced_by_epoch,omitempty"`
}

// Health reports the server's state and the HTTP status /healthz
// answers with. 503 means do not route here: a shard's crash-loop
// breaker tripped or a worker is wedged past -stall-timeout (degraded —
// training retries on the still-serving deployed model — stays 200);
// the state directory has not held the fleet's state for three
// checkpoint intervals; this primary was fenced; or a promotion failed.
// An un-promoted standby is alive and warming: 200.
func (s *Server) Health() (Health, int) {
	h := Health{Status: "standby", Mode: "standby"}
	code := http.StatusOK
	if s.sb != nil {
		h.Replication = &Replication{
			Role:       "standby",
			Primary:    s.cfg.StandbyOf,
			Epoch:      s.sb.Epoch(),
			Generation: s.sb.Gen(),
			Applied:    s.sb.Applied(),
		}
	}
	f := s.flt.Load()
	if f == nil {
		if msg, ok := s.promoteErr.Load().(string); ok {
			h.Status, h.Error = "promotion_failed", msg
			code = http.StatusServiceUnavailable
		}
		return h, code
	}
	fh, stats, st := f.mon.Health(), f.mon.Stats(), f.router.Stats()
	h.Status, h.Mode = fh.State.String(), "ingest"
	h.Shards, h.ActiveShards = f.mon.Shards(), f.mon.Active()
	h.Frames = f.boot + st.Processed
	h.Quarantined, h.TrainFails = stats.QuarantinedFrames, stats.TrainingFailures
	h.ShardHealth = fh.Shards
	h.Ingest = &st
	if !fh.Serving() {
		if fh.Stalled {
			h.Status = "stalled"
		}
		code = http.StatusServiceUnavailable
	}
	if h.Replication != nil {
		h.Replication.Role, h.Replication.Primary = "promoted", ""
	}
	if s.prim != nil {
		ps := s.prim.Stats()
		h.Replication = &Replication{
			Role:           "primary",
			Epoch:          s.prim.Epoch(),
			Generation:     s.prim.Gen(),
			LagGenerations: s.prim.Lag(),
			PrimaryStats:   &ps,
			LastCycleMS:    float64(ps.LastCycle) / float64(time.Millisecond),
			LastCaptureMS:  float64(ps.LastCapture) / float64(time.Millisecond),
			FencedByEpoch:  s.fencedEpoch.Load(),
		}
		if h.Replication.FencedByEpoch != 0 {
			// A standby promoted past us: this primary is the stale side of
			// a partition and must not be treated as live.
			h.Status = "fenced"
			code = http.StatusServiceUnavailable
		}
	}
	if s.st != nil {
		age := time.Since(time.Unix(0, s.lastCkpt.Load()))
		h.StateDir = s.st.Dir()
		h.CkptAge = age.Seconds()
		h.CkptIntervalS = s.cfg.CheckpointEvery.Seconds()
		if age > 3*s.cfg.CheckpointEvery {
			h.Status = "degraded"
			code = http.StatusServiceUnavailable
		}
	}
	return h, code
}
