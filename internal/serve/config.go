package serve

import (
	"errors"
	"fmt"
	"time"

	"videodrift/internal/modelset"
)

// Config is driftserve's configuration: one field per command-line
// flag, named after it, and nothing else (cmd/driftserve holds the
// defaults and the help text).
type Config struct {
	Addr            string        // -addr
	Dataset         string        // -dataset
	Scale           float64       // -scale
	Selector        string        // -selector
	Train           int           // -train
	Workers         int           // -workers
	Batch           int           // -batch
	Ring            int           // -ring
	PerFrame        bool          // -perframe
	Verbose         bool          // -v
	StateDir        string        // -state-dir
	CheckpointEvery time.Duration // -checkpoint-every
	StallTimeout    time.Duration // -stall-timeout
	Forensics       bool          // -forensics
	IngestAddr      string        // -ingest-addr
	MaxTenants      int           // -max-tenants
	TenantQueue     int           // -tenant-queue
	IdleEvict       time.Duration // -idle-evict
	ReplicateTo     string        // -replicate-to
	ReplicateEvery  time.Duration // -replicate-every
	StandbyOf       string        // -standby-of
	ReplicaAddr     string        // -replica-addr
	ProbeEvery      time.Duration // -probe-every
	ProbeFails      int           // -probe-fails
}

// Validate reports the first usage error in the configuration: a bad
// value is refused here, not met as undefined behavior deep in the
// pipeline.
func (c *Config) Validate() error {
	standby := c.StandbyOf != ""
	_, badSelector := modelset.ParseSelector(c.Selector)
	for _, rule := range []struct {
		broken bool
		usage  string
	}{
		{badSelector != nil, fmt.Sprint(badSelector)},
		{c.Batch < 1, fmt.Sprintf("-batch must be >= 1, got %d", c.Batch)},
		{c.Ring < 1, fmt.Sprintf("-ring must be >= 1, got %d", c.Ring)},
		{c.Train < 1, fmt.Sprintf("-train must be >= 1, got %d", c.Train)},
		{c.TenantQueue < 1, fmt.Sprintf("-tenant-queue must be >= 1, got %d", c.TenantQueue)},
		{c.IngestAddr == "", "-ingest-addr must name a listen address: frames reach the fleet only over the wire"},
		{c.MaxTenants < 1, fmt.Sprintf("-max-tenants must be >= 1, got %d", c.MaxTenants)},
		{c.IdleEvict < 0, fmt.Sprintf("-idle-evict must be >= 0, got %v", c.IdleEvict)},
		{standby && c.ReplicaAddr == "", "-standby-of needs -replica-addr to accept the primary's replication stream"},
		{standby && c.ReplicateTo != "", "-standby-of and -replicate-to are exclusive: a standby becomes a primary only by promotion"},
		{standby && c.StateDir != "", "-state-dir does not combine with -standby-of yet: the standby's state is the replicated stream"},
		{standby && c.ProbeEvery <= 0, fmt.Sprintf("-probe-every must be > 0, got %v", c.ProbeEvery)},
		{standby && c.ProbeFails < 1, fmt.Sprintf("-probe-fails must be >= 1, got %d", c.ProbeFails)},
		{!standby && c.ReplicaAddr != "", "-replica-addr needs -standby-of"},
		{c.ReplicateTo != "" && c.ReplicateEvery <= 0, fmt.Sprintf("-replicate-every must be > 0, got %v", c.ReplicateEvery)},
	} {
		if rule.broken {
			return errors.New(rule.usage)
		}
	}
	return nil
}
