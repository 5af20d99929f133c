//go:build amd64 && !amd64.v3

package modelset

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"videodrift/internal/core"
	"videodrift/internal/dataset"
	"videodrift/internal/query"
)

// provisionDigest is the SHA-256 over Classifier.MarshalBinary then
// Ensemble.MarshalBinary of each Build(BDD 0.02, 300 frames, MSBO) entry,
// in registry order, as first recorded in CHANGES.md and unchanged since.
const provisionDigest = "36cfd2cf531e81491151a29e214027477797de8ca56181bd4e7797f33bf772e3"

// TestProvisionDigest pins the trained weights across commits: every
// training optimization so far claims bit identity, and this is the claim
// on the four models a -selector msbo server boots with. The digest
// belongs to amd64 without fused multiply-add — arm64 and GOAMD64=v3
// contract x*y + z, and that moves the last bit — hence the build
// constraint.
func TestProvisionDigest(t *testing.T) {
	env := Build(dataset.BDD(0.02), DefaultConfig(), query.Count, core.SelectorMSBO)
	h := sha256.New()
	for _, e := range env.Registry.Entries() {
		h.Write(mustMarshal(t, e.Classifier))
		h.Write(mustMarshal(t, e.Ensemble))
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != provisionDigest {
		t.Errorf("weights digest %s, want %s: a trained weight moved", got, provisionDigest)
	}
}

// msbiDigest is the SHA-256 over each Build(BDD 0.02, 300 frames, MSBI)
// entry's Classifier.MarshalBinary, then its Σ (SampleFeats) and A_i
// (CalibRaw) as little-endian float64 bits, in registry order, as
// recorded in CHANGES.md when the model set left internal/experiments.
const msbiDigest = "bc082b4acac0e7426f663bffc512aece138364949dfad03080de423f7e9c7f22"

// TestMSBIDigest pins the model set driftserve boots by default
// (-selector msbi): the lean entries TestProvisionDigest does not reach.
func TestMSBIDigest(t *testing.T) {
	set := Build(dataset.BDD(0.02), DefaultConfig(), query.Count, core.SelectorMSBI)
	h := sha256.New()
	var b [8]byte
	float := func(x float64) {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
		h.Write(b[:])
	}
	for _, e := range set.Registry.Entries() {
		if e.Ensemble != nil {
			t.Fatalf("%s: an MSBI entry carries an MSBO ensemble", e.Name)
		}
		h.Write(mustMarshal(t, e.Classifier))
		for _, v := range e.SampleFeats {
			for _, x := range v {
				float(x)
			}
		}
		for _, x := range e.CalibRaw {
			float(x)
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != msbiDigest {
		t.Errorf("MSBI set digest %s, want %s: a trained weight, Σ or A_i moved", got, msbiDigest)
	}
}
