package classifier

import (
	"bytes"
	"encoding/gob"
	"fmt"

	"videodrift/internal/stats"
)

// classifierRecord is the gob wire form of a Classifier: the
// architecture plus the network weights as produced by
// nn.Network.MarshalBinary. Optimizer moments are not retained —
// provisioned classifiers are never resumed mid-Fit.
//
//driftlint:snapshot encode=Classifier.MarshalBinary decode=UnmarshalClassifier
type classifierRecord struct {
	Config  Config
	Weights []byte
}

// MarshalBinary serializes the classifier's architecture and weights.
func (c *Classifier) MarshalBinary() ([]byte, error) {
	w, err := c.net.MarshalBinary()
	if err != nil {
		return nil, fmt.Errorf("classifier: encode: %w", err)
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(classifierRecord{Config: c.cfg, Weights: w}); err != nil {
		return nil, fmt.Errorf("classifier: encode: %w", err)
	}
	return buf.Bytes(), nil
}

// UnmarshalClassifier reconstructs a classifier serialized by
// MarshalBinary: same architecture, identical weights (and therefore
// bit-identical predictions).
func UnmarshalClassifier(data []byte) (*Classifier, error) {
	var rec classifierRecord
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&rec); err != nil {
		return nil, fmt.Errorf("classifier: decode: %w", err)
	}
	if rec.Config.InputDim <= 0 || rec.Config.NumClasses < 2 {
		return nil, fmt.Errorf("classifier: decode: invalid config %+v", rec.Config)
	}
	// Initialization weights are discarded by the restore below, so the
	// construction RNG is a throwaway.
	c := New(rec.Config, stats.NewRNG(0))
	if err := c.net.UnmarshalBinary(rec.Weights); err != nil {
		return nil, fmt.Errorf("classifier: decode: %w", err)
	}
	return c, nil
}

// ensembleRecord is the gob wire form of an Ensemble: one encoded
// classifier per member.
//
//driftlint:snapshot encode=Ensemble.MarshalBinary decode=UnmarshalEnsemble
type ensembleRecord struct {
	Members [][]byte
}

// MarshalBinary serializes every ensemble member.
func (e *Ensemble) MarshalBinary() ([]byte, error) {
	rec := ensembleRecord{Members: make([][]byte, len(e.Members))}
	for i, m := range e.Members {
		b, err := m.MarshalBinary()
		if err != nil {
			return nil, fmt.Errorf("classifier: encode ensemble member %d: %w", i, err)
		}
		rec.Members[i] = b
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(rec); err != nil {
		return nil, fmt.Errorf("classifier: encode ensemble: %w", err)
	}
	return buf.Bytes(), nil
}

// EnsembleMembers returns how many members an ensemble serialized by
// MarshalBinary holds, without rebuilding them.
func EnsembleMembers(data []byte) (int, error) {
	var rec ensembleRecord
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&rec); err != nil {
		return 0, fmt.Errorf("classifier: decode ensemble: %w", err)
	}
	return len(rec.Members), nil
}

// UnmarshalEnsemble reconstructs an ensemble serialized by
// MarshalBinary.
func UnmarshalEnsemble(data []byte) (*Ensemble, error) {
	var rec ensembleRecord
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&rec); err != nil {
		return nil, fmt.Errorf("classifier: decode ensemble: %w", err)
	}
	if len(rec.Members) == 0 {
		return nil, fmt.Errorf("classifier: decode ensemble: no members")
	}
	e := &Ensemble{Members: make([]*Classifier, len(rec.Members))}
	for i, b := range rec.Members {
		m, err := UnmarshalClassifier(b)
		if err != nil {
			return nil, fmt.Errorf("classifier: decode ensemble member %d: %w", i, err)
		}
		e.Members[i] = m
	}
	return e, nil
}
