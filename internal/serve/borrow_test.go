package serve

import (
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"
	_ "unsafe" // go:linkname

	"videodrift/internal/vidsim"
)

// poisonFreed is internal/ingest's borrow-contract tripwire: while set,
// every pixel buffer the router frees is filled with NaN. It stays
// unexported there; this test reaches it by name.
//
//go:linkname poisonFreed videodrift/internal/ingest.poisonFreed
var poisonFreed atomic.Bool

// TestServeIngestBorrowed is TestServeIngest with the tripwire on, and
// with every declaration's full report compared too: the report replays
// the pre-roll the forensics recorder kept, so a recorder that kept a
// borrowed frame rather than its own copy replays NaN. Served
// declarations and reports must be those of an in-process Monitor fed
// fresh frames.
func TestServeIngestBorrowed(t *testing.T) {
	poisonFreed.Store(true)
	defer poisonFreed.Store(false)
	for _, sel := range []string{"msbo", "msbi"} {
		t.Run(sel, func(t *testing.T) {
			const tenants, frames = 3, 200
			cfg := testConfig()
			cfg.MaxTenants, cfg.TenantQueue, cfg.Batch = 8, 64, 8
			cfg.Selector = sel
			s := start(t, cfg)
			streams := make([][]vidsim.Frame, tenants)
			for i := range streams {
				streams[i] = tenantStream(s, i, frames)
			}
			feed(t, s.IngestAddr(), streams, 97, nil)
			var h Health
			await(t, "the pump to drain", func() bool {
				h, _ = s.Health()
				return h.Ingest.Processed == tenants*frames
			})
			reports := 0
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
				for _, d := range ref.Forensics().Declarations() {
					want, err := ref.Explain(d.ID)
					if err != nil {
						t.Fatal(err)
					}
					var rep any
					get(t, s, fmt.Sprintf("/drift/%s?shard=%d", d.ID, ts.Slot), &rep)
					if !reflect.DeepEqual(rep, viaJSON(t, want)) {
						t.Errorf("tenant %s %s: served report\n%v\nreplayed\n%v", ts.Tenant, d.ID, rep, viaJSON(t, want))
					}
					reports++
				}
			}
			if reports == 0 {
				t.Error("no tenant drifted: the comparison exercised nothing")
			}
		})
	}
}
