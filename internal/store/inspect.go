package store

import (
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"time"

	"videodrift/internal/classifier"
	"videodrift/internal/telemetry"
	"videodrift/internal/wire"
)

// ModelInfo describes one persisted model entry without rebuilding it.
type ModelInfo struct {
	Name        string
	W, H        int
	FeatDim     int // dimensionality of the reference features
	Samples     int // |Σ_Ti|
	CalibScores int
	HasVAE      bool
	Supervised  bool // query classifier present
	Ensemble    int  // MSBO ensemble members; 0 for a model provisioned under MSBI, or unsupervised
	QueryFn     string
	Bytes       int
	CRC32       uint32
}

// ShardInfo describes one shard's persisted runtime position.
type ShardInfo struct {
	Frames   int // frames the shard's pipeline has processed
	Sampled  int // frames folded into the deployed inspector's martingale
	State    string
	Deployed string // name of the deployed model
	Models   int    // registry size
	Buffered int    // frames held in the selection/training buffer
	// PreRollKept of the PreRollSpan stream frames the open forensics
	// pre-roll covers are held, about one in SampleEvery (0/0: forensics
	// off, or suspended by a selection).
	PreRollKept, PreRollSpan int
	// Drifts, Selections and Trainings are the pipeline's counts of
	// drifts declared, models selected and models trained.
	Drifts, Selections, Trainings int
	// Declarations is how many drift declarations the shard's forensics
	// recorder retained (0 when forensics was disabled).
	Declarations int
	// LastDrift summarizes the most recent retained declaration: ID,
	// frame, monitored model, and the top of its attribution ranking.
	LastDrift      string
	LastDriftFrame int
	LastDriftModel string
	LastDriftTop   []telemetry.DimShift
}

// Description is everything `drifttool inspect` reports about a
// checkpoint file: envelope metadata, per-model inventory with
// checksums, and per-shard stream positions.
type Description struct {
	Path            string
	Version         uint16
	PayloadBytes    int
	PayloadCRC      uint32
	CreatedUnixNano int64
	Frames          int64
	Models          []ModelInfo
	Shards          []ShardInfo
}

var stateNames = [...]string{"monitoring", "selecting", "training"}

// Inspect reads a checkpoint file and describes it without
// reconstructing the heavyweight model objects, so it is fast even for
// large registries and safe to point at damaged files (typed errors,
// no panics).
func Inspect(path string) (*Description, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	delta, err := decodeFile(data)
	if err != nil {
		return nil, err
	}
	shards := cloneShards(delta.Shards)
	if err := delta.buildFrames(nil, shards); err != nil {
		return nil, err
	}
	payload := data[wire.HeaderSize:]
	d := &Description{
		Path:            path,
		Version:         Version,
		PayloadBytes:    len(payload),
		PayloadCRC:      crc32.ChecksumIEEE(payload),
		CreatedUnixNano: delta.CreatedUnixNano,
		Frames:          delta.Frames,
	}
	names := make([]string, len(delta.NewEntries))
	for i, blob := range delta.NewEntries {
		er, err := decodeEntryRecord(blob)
		if err != nil {
			return nil, err
		}
		names[i] = er.Name
		info := ModelInfo{
			Name:        er.Name,
			W:           er.W,
			H:           er.H,
			Samples:     len(er.SampleFeats),
			CalibScores: len(er.CalibRaw),
			HasVAE:      er.VAE != nil,
			Supervised:  er.Classifier != nil,
			QueryFn:     er.QueryFn,
			Bytes:       len(blob),
			CRC32:       delta.NewCRCs[i],
		}
		if len(er.SampleFeats) > 0 {
			info.FeatDim = len(er.SampleFeats[0])
		}
		if er.Ensemble != nil {
			if info.Ensemble, err = classifier.EnsembleMembers(er.Ensemble); err != nil {
				return nil, fmt.Errorf("store: entry %q: %w", er.Name, err)
			}
		}
		d.Models = append(d.Models, info)
	}
	for _, sh := range shards {
		p := sh.Pipeline
		info := ShardInfo{
			Frames:     p.Metrics.Frames,
			Sampled:    p.DI.Sampled,
			Models:     len(sh.Registry),
			Buffered:   len(p.Buffer),
			Drifts:     p.Metrics.DriftsDetected,
			Selections: p.Metrics.ModelsSelected,
			Trainings:  p.Metrics.ModelsTrained,
		}
		if p.State >= 0 && p.State < len(stateNames) {
			info.State = stateNames[p.State]
		} else {
			info.State = fmt.Sprintf("state(%d)", p.State)
		}
		info.Deployed = names[sh.Registry[p.Current]]
		if f := sh.Forensics; f.Enabled && !f.Pending && len(f.Marks) > 0 {
			info.PreRollKept, info.PreRollSpan = len(f.Ring), f.Frame-f.Marks[0].Frame
		}
		if sh.Forensics.Enabled && len(sh.Forensics.Declarations) > 0 {
			info.Declarations = len(sh.Forensics.Declarations)
			last := sh.Forensics.Declarations[len(sh.Forensics.Declarations)-1]
			info.LastDrift = last.ID
			info.LastDriftFrame = last.Frame
			info.LastDriftModel = last.Model
			top := last.Attribution
			if len(top) > 3 {
				top = top[:3]
			}
			info.LastDriftTop = top
		}
		d.Shards = append(d.Shards, info)
	}
	return d, nil
}

// WriteText renders the description in the layout `drifttool inspect`
// prints.
func (d *Description) WriteText(w io.Writer) {
	fmt.Fprintf(w, "checkpoint %s\n", d.Path)
	fmt.Fprintf(w, "  format v%d, payload %d bytes, crc32 %08x\n", d.Version, d.PayloadBytes, d.PayloadCRC)
	fmt.Fprintf(w, "  created %s, stream frames %d\n",
		time.Unix(0, d.CreatedUnixNano).UTC().Format(time.RFC3339), d.Frames)
	fmt.Fprintf(w, "  models (%d):\n", len(d.Models))
	for _, m := range d.Models {
		kind := "unsupervised"
		if m.Supervised {
			kind = "supervised/" + m.QueryFn + " ensemble=none" // what -selector msbo refuses
			if m.Ensemble > 0 {
				kind = fmt.Sprintf("supervised/%s ensemble=%d", m.QueryFn, m.Ensemble)
			}
		}
		vae := ""
		if m.HasVAE {
			vae = " +vae"
		}
		fmt.Fprintf(w, "    %-16s %dx%d feat=%dd samples=%d calib=%d %s%s  %d bytes crc32 %08x\n",
			m.Name, m.W, m.H, m.FeatDim, m.Samples, m.CalibScores, kind, vae, m.Bytes, m.CRC32)
	}
	fmt.Fprintf(w, "  shards (%d):\n", len(d.Shards))
	for i, s := range d.Shards {
		fmt.Fprintf(w, "    shard %d: frame %d (sampled %d) state=%s deployed=%q registry=%d buffered=%d pre-roll kept/span=%d/%d drifts=%d selections=%d trainings=%d\n",
			i, s.Frames, s.Sampled, s.State, s.Deployed, s.Models, s.Buffered, s.PreRollKept, s.PreRollSpan, s.Drifts, s.Selections, s.Trainings)
		if s.Declarations > 0 {
			fmt.Fprintf(w, "      drifts retained: %d, last %s @ frame %d on %q", s.Declarations, s.LastDrift, s.LastDriftFrame, s.LastDriftModel)
			for j, a := range s.LastDriftTop {
				sep := " —"
				if j > 0 {
					sep = ","
				}
				name := a.Name
				if name == "" {
					name = fmt.Sprintf("dim%d", a.Dim)
				}
				fmt.Fprintf(w, "%s %s js=%.3f", sep, name, a.JS)
			}
			fmt.Fprintf(w, "\n")
		}
	}
}
