//go:build amd64 && !amd64.v3

package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"videodrift/internal/dataset"
	"videodrift/internal/query"
)

// provisionDigest is the SHA-256 over Classifier.MarshalBinary then
// Ensemble.MarshalBinary of each BuildEnv(BDD 0.02, 300 frames) entry, in
// registry order, as recorded in CHANGES.md at PR 13 and unchanged since.
const provisionDigest = "36cfd2cf531e81491151a29e214027477797de8ca56181bd4e7797f33bf772e3"

// TestProvisionDigest pins the trained weights across commits: every
// training optimization so far claims bit identity, and this is the claim
// on the four models driftserve boots with. The digest belongs to amd64
// without fused multiply-add — arm64 and GOAMD64=v3 contract x*y + z, and
// that moves the last bit — hence the build constraint.
func TestProvisionDigest(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Scale = 0.02
	env := BuildEnv(dataset.BDD(cfg.Scale), cfg, query.Count)
	h := sha256.New()
	for _, e := range env.Registry.Entries() {
		h.Write(mustMarshal(t, e.Classifier))
		h.Write(mustMarshal(t, e.Ensemble))
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != provisionDigest {
		t.Errorf("weights digest %s, want %s: a trained weight moved", got, provisionDigest)
	}
}
