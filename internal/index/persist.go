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
//
// Two framings share the struct. Version 1 (Save/Load) is a full-world
// snapshot and carries only ThetaIndex + Tags. Version 2 (WriteBase/
// WriteDelta/LoadStack) adds LSM framing for the streaming-ingest tier: Kind
// distinguishes a base ("full") from a mini-snapshot ("delta"), Seq is the
// WAL durability watermark the file was cut at, and for deltas Entities
// lists the dirty entity IDs the postings cover. The extra fields are
// omitempty so version-1 output is byte-identical to what it always was.
type snapshotFile struct {
	// Version guards the wire format.
	Version int `json:"version"`
	// Kind is "full" or "delta" (version 2 only; empty in version 1).
	Kind string `json:"kind,omitempty"`
	// Seq is the WAL sequence watermark (version 2 only).
	Seq uint64 `json:"seq,omitempty"`
	// ThetaIndex records the threshold the postings were computed with
	// (informational; loading does not override the target's threshold).
	ThetaIndex float64 `json:"theta_index"`
	// Entities lists the dirty entities a delta covers (version 2 deltas
	// only); every posting entry must reference one of them.
	Entities []string `json:"entities,omitempty"`
	// Tags preserves insertion order.
	Tags []tagPostings `json:"tags"`
}

// tagPostings is one tag's posting list on the wire.
type tagPostings struct {
	Tag     string  `json:"tag"`
	Entries []Entry `json:"entries"`
}

// snapshotVersion is the full-world snapshot wire format version.
const snapshotVersion = 1

// stackVersion is the LSM (base + delta stack) wire format version.
const stackVersion = 2

// The two version-2 framing kinds.
const (
	kindFull  = "full"
	kindDelta = "delta"
)

// Save writes the snapshot as JSON. A Snapshot is immutable, so the output
// is one consistent generation regardless of concurrent rebuilds.
func (s *Snapshot) Save(w io.Writer) error {
	file := snapshotFile{Version: snapshotVersion, ThetaIndex: s.thetaIndex}
	for _, tag := range s.order {
		file.Tags = append(file.Tags, tagPostings{Tag: tag, Entries: s.tags[tag].entries})
	}
	return encodeSnapshotFile(w, file)
}

// Save writes the currently published generation as JSON. The generation is
// pinned once, so a snapshot taken during concurrent rebuilds is consistent.
func (ix *Index) Save(w io.Writer) error { return ix.Current().Save(w) }

// WriteBase writes the snapshot as a version-2 base ("full") file stamped
// with the WAL sequence watermark it was compacted at. Apart from the
// framing fields the payload matches Save.
func (s *Snapshot) WriteBase(w io.Writer, seq uint64) error {
	file := snapshotFile{Version: stackVersion, Kind: kindFull, Seq: seq, ThetaIndex: s.thetaIndex}
	for _, tag := range s.order {
		file.Tags = append(file.Tags, tagPostings{Tag: tag, Entries: s.tags[tag].entries})
	}
	return encodeSnapshotFile(w, file)
}

// WriteDelta writes one mini-snapshot as a version-2 "delta" file. The delta
// must carry its WAL watermark in Seq; thetaIndex is recorded for the same
// informational purpose as in Save.
func WriteDelta(w io.Writer, thetaIndex float64, d *Delta) error {
	file := snapshotFile{
		Version:    stackVersion,
		Kind:       kindDelta,
		Seq:        d.Seq,
		ThetaIndex: thetaIndex,
		Entities:   d.Entities,
	}
	for i, tag := range d.Tags {
		file.Tags = append(file.Tags, tagPostings{Tag: tag, Entries: d.Postings[i]})
	}
	return encodeSnapshotFile(w, file)
}

func encodeSnapshotFile(w io.Writer, file snapshotFile) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(file)
}

// Load replaces the index's postings with a previously saved snapshot,
// published atomically: readers in flight keep their pinned generation. The
// receiver keeps its similarity measure and thresholds.
//
// Load validates the snapshot fully before publishing: truncated or corrupt
// input — trailing garbage, an unknown version, duplicate tags or entities,
// empty keys, non-finite or negative degrees, postings out of Save's
// (degree desc, ID asc) order — is rejected with a wrapped error and leaves
// the index unchanged. It never panics on adversarial input (the
// FuzzSnapshotDecode target enforces this).
//
// Load accepts a version-1 snapshot or a version-2 base ("full") file. A
// version-2 mini-snapshot ("delta") is NOT a full world — its postings cover
// only the dirty entities — so loading one here is rejected; replay a delta
// stack with LoadStack instead.
func (ix *Index) Load(r io.Reader) error {
	file, err := decodeSnapshotFile(r)
	if err != nil {
		return err
	}
	if file.Kind == kindDelta {
		return fmt.Errorf("index: corrupt snapshot: a mini-snapshot (delta) is not a full world; load it with LoadStack")
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

// LoadStack replays an LSM stack — one version-2 base file plus zero or more
// version-2 delta files in ascending watermark order — and publishes the
// folded result as one generation. Every file is validated before anything
// is published; on any error the index is unchanged.
//
// Strictness: the base must be version 2 kind "full" (a version-1 snapshot
// in a stack is a mixed-version stack and is rejected — re-compact instead),
// every delta must be version 2 kind "delta", and watermarks must be
// strictly increasing from the base's. The top watermark is returned.
func (ix *Index) LoadStack(base io.Reader, deltas ...io.Reader) (uint64, error) {
	file, err := decodeSnapshotFile(base)
	if err != nil {
		return 0, err
	}
	if file.Version != stackVersion || file.Kind != kindFull {
		return 0, fmt.Errorf("index: mixed-version stack: base must be a version %d %q file, got version %d kind %q",
			stackVersion, kindFull, file.Version, file.Kind)
	}
	tags, lists, err := validateSnapshotFile(file)
	if err != nil {
		return 0, err
	}
	seq := file.Seq
	parsed := make([]*Delta, 0, len(deltas))
	for i, r := range deltas {
		d, _, derr := ReadDelta(r)
		if derr != nil {
			return 0, fmt.Errorf("index: stack delta %d: %w", i, derr)
		}
		if d.Seq <= seq {
			return 0, fmt.Errorf("index: stack delta %d: watermark %d not above predecessor %d", i, d.Seq, seq)
		}
		seq = d.Seq
		parsed = append(parsed, d)
	}
	// Derived under the publish lock like every other generation: the entity
	// numbering is only append-only along the chain if each link extends the
	// table of the generation it replaces.
	ix.publishMu.Lock()
	next := ix.snap.Load().withContents(tags, lists)
	for _, d := range parsed {
		next = next.withDelta(d)
	}
	ix.publish(next)
	ix.publishMu.Unlock()
	return seq, nil
}

// ReadDelta decodes and fully validates one version-2 mini-snapshot file,
// returning the delta and the thetaIndex it was computed with. Validation
// mirrors Load's — plus the delta-specific invariants: a non-empty dirty
// entity list with no duplicates, and every posting entry referencing a
// declared dirty entity.
func ReadDelta(r io.Reader) (*Delta, float64, error) {
	file, err := decodeSnapshotFile(r)
	if err != nil {
		return nil, 0, err
	}
	if file.Version != stackVersion || file.Kind != kindDelta {
		return nil, 0, fmt.Errorf("index: not a mini-snapshot: version %d kind %q", file.Version, file.Kind)
	}
	if len(file.Entities) == 0 {
		return nil, 0, fmt.Errorf("index: corrupt mini-snapshot: no dirty entities declared")
	}
	dirty := make(map[string]bool, len(file.Entities))
	for _, id := range file.Entities {
		if id == "" {
			return nil, 0, fmt.Errorf("index: corrupt mini-snapshot: empty entity ID")
		}
		if dirty[id] {
			return nil, 0, fmt.Errorf("index: corrupt mini-snapshot: duplicate entity %q", id)
		}
		dirty[id] = true
	}
	d := &Delta{Seq: file.Seq, Entities: file.Entities}
	seen := make(map[string]bool, len(file.Tags))
	for _, tp := range file.Tags {
		if tp.Tag == "" {
			return nil, 0, fmt.Errorf("index: corrupt mini-snapshot: empty tag key")
		}
		if seen[tp.Tag] {
			return nil, 0, fmt.Errorf("index: duplicate tag %q in mini-snapshot", tp.Tag)
		}
		seen[tp.Tag] = true
		if err := validPostings(tp.Tag, tp.Entries); err != nil {
			return nil, 0, fmt.Errorf("index: corrupt mini-snapshot: %w", err)
		}
		for _, e := range tp.Entries {
			if !dirty[e.EntityID] {
				return nil, 0, fmt.Errorf("index: corrupt mini-snapshot: tag %q posts entity %q outside the dirty set", tp.Tag, e.EntityID)
			}
		}
		entries := tp.Entries
		if entries == nil {
			entries = make([]Entry, 0)
		}
		d.Tags = append(d.Tags, tp.Tag)
		d.Postings = append(d.Postings, entries)
	}
	return d, file.ThetaIndex, nil
}

// decodeSnapshotFile decodes one snapshot/delta JSON document and applies
// the cross-kind framing checks: no trailing data, a known version, and
// framing fields consistent with that version (a version-1 file must not
// smuggle version-2 framing, a version-2 file must declare a known kind and
// only deltas may list entities).
func decodeSnapshotFile(r io.Reader) (snapshotFile, error) {
	dec := json.NewDecoder(r)
	var file snapshotFile
	if err := dec.Decode(&file); err != nil {
		return file, fmt.Errorf("index: decoding snapshot: %w", err)
	}
	if _, err := dec.Token(); !errors.Is(err, io.EOF) {
		return file, fmt.Errorf("index: corrupt snapshot: trailing data after snapshot value")
	}
	switch file.Version {
	case snapshotVersion:
		if file.Kind != "" || file.Seq != 0 || len(file.Entities) != 0 {
			return file, fmt.Errorf("index: corrupt snapshot: version %d file carries version %d framing fields",
				snapshotVersion, stackVersion)
		}
	case stackVersion:
		if file.Kind != kindFull && file.Kind != kindDelta {
			return file, fmt.Errorf("index: corrupt snapshot: unknown kind %q", file.Kind)
		}
		if file.Kind == kindFull && len(file.Entities) != 0 {
			return file, fmt.Errorf("index: corrupt snapshot: %q file declares a dirty entity set", kindFull)
		}
	default:
		return file, fmt.Errorf("index: unsupported snapshot version %d", file.Version)
	}
	return file, nil
}

// validateSnapshotFile checks a full-world file's tag map (either version)
// and returns its keys in file order with their posting lists, ready for
// publication.
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
