package index

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
)

// snapshotFile is the serializable form of an index generation: tag →
// posting list. The similarity measure and thresholds are configuration, not
// state, so they are not persisted; load into an Index constructed with the
// same measure.
type snapshotFile struct {
	// Version guards the wire format.
	Version int `json:"version"`
	// Kind, Seq and Entities are the framing fields of a retired base/delta
	// stack format. Save never writes them, and a file that carries any of
	// them is not a snapshot Save produced, so Load rejects it.
	Kind     string   `json:"kind,omitempty"`
	Seq      uint64   `json:"seq,omitempty"`
	Entities []string `json:"entities,omitempty"`
	// ThetaIndex records the threshold the postings were computed with
	// (informational; loading does not override the target's threshold).
	ThetaIndex float64 `json:"theta_index"`
	// Tags preserves insertion order.
	Tags []tagPostings `json:"tags"`
}

// tagPostings is one tag's posting list on the wire.
type tagPostings struct {
	Tag     string  `json:"tag"`
	Entries []Entry `json:"entries"`
}

// snapshotVersion is the snapshot wire format version, the only one Load
// accepts.
const snapshotVersion = 1

// Save writes the snapshot as JSON. A Snapshot is immutable, so the output
// is one consistent generation regardless of concurrent rebuilds.
func (s *Snapshot) Save(w io.Writer) error {
	file := snapshotFile{Version: snapshotVersion, ThetaIndex: s.thetaIndex}
	for _, tag := range s.order {
		file.Tags = append(file.Tags, tagPostings{Tag: tag, Entries: s.tags[tag].entries})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(file)
}

// Save writes the currently published generation as JSON. The generation is
// pinned once, so a snapshot taken during concurrent rebuilds is consistent.
func (ix *Index) Save(w io.Writer) error { return ix.Current().Save(w) }

// Load replaces the index's postings with a previously saved snapshot,
// published atomically: readers in flight keep their pinned generation. The
// receiver keeps its similarity measure and thresholds.
//
// Load validates the snapshot fully before publishing: truncated or corrupt
// input — trailing garbage, any version but snapshotVersion, the retired
// stack framing fields, duplicate tags or entities, empty keys, non-finite
// or negative degrees, postings out of Save's (degree desc, ID asc) order —
// is rejected with a wrapped error and leaves the index unchanged. It never
// panics on adversarial input (the FuzzSnapshotDecode target enforces this).
func (ix *Index) Load(r io.Reader) error {
	dec := json.NewDecoder(r)
	var file snapshotFile
	if err := dec.Decode(&file); err != nil {
		return fmt.Errorf("index: decoding snapshot: %w", err)
	}
	if _, err := dec.Token(); !errors.Is(err, io.EOF) {
		return fmt.Errorf("index: corrupt snapshot: trailing data after snapshot value")
	}
	if file.Version != snapshotVersion {
		return fmt.Errorf("index: unsupported snapshot version %d", file.Version)
	}
	if file.Kind != "" || file.Seq != 0 || len(file.Entities) != 0 {
		return fmt.Errorf("index: corrupt snapshot: version %d file carries stack framing fields", snapshotVersion)
	}
	tags, lists, err := validateSnapshotFile(file)
	if err != nil {
		return err
	}
	ix.publishMu.Lock()
	ix.publish(ix.snap.Load().withContents(tags, lists))
	ix.publishMu.Unlock()
	return nil
}

// validateSnapshotFile checks a snapshot's tag map and returns its keys in
// file order with their posting lists, ready for publication.
func validateSnapshotFile(file snapshotFile) ([]string, [][]Entry, error) {
	seen := make(map[string]bool, len(file.Tags))
	tags := make([]string, 0, len(file.Tags))
	lists := make([][]Entry, 0, len(file.Tags))
	for _, tp := range file.Tags {
		if tp.Tag == "" {
			return nil, nil, fmt.Errorf("index: corrupt snapshot: empty tag key")
		}
		if seen[tp.Tag] {
			return nil, nil, fmt.Errorf("index: duplicate tag %q in snapshot", tp.Tag)
		}
		seen[tp.Tag] = true
		if err := validPostings(tp.Tag, tp.Entries); err != nil {
			return nil, nil, fmt.Errorf("index: corrupt snapshot: %w", err)
		}
		tags = append(tags, tp.Tag)
		lists = append(lists, tp.Entries)
	}
	return tags, lists, nil
}

// validPostings checks one tag's posting list for the invariants Save
// guarantees: non-empty entity IDs, no duplicate entity, finite non-negative
// degrees, and (degree desc, entity ID asc) order.
func validPostings(tag string, entries []Entry) error {
	seen := make(map[string]bool, len(entries))
	for i, e := range entries {
		if e.EntityID == "" {
			return fmt.Errorf("tag %q: posting %d has an empty entity ID", tag, i)
		}
		if seen[e.EntityID] {
			return fmt.Errorf("tag %q: duplicate entity %q", tag, e.EntityID)
		}
		seen[e.EntityID] = true
		if math.IsNaN(e.Degree) || math.IsInf(e.Degree, 0) || e.Degree < 0 {
			return fmt.Errorf("tag %q: entity %q has invalid degree %v", tag, e.EntityID, e.Degree)
		}
		if i > 0 {
			prev := entries[i-1]
			if prev.Degree < e.Degree || (prev.Degree == e.Degree && prev.EntityID >= e.EntityID) {
				return fmt.Errorf("tag %q: postings out of order at %d (%q deg=%v before %q deg=%v)",
					tag, i, prev.EntityID, prev.Degree, e.EntityID, e.Degree)
			}
		}
	}
	return nil
}
