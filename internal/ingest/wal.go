package ingest

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"sort"
	"strings"
	"sync"
	"time"

	"saccs/internal/obs"
)

// The WAL wire format. Each segment file is
//
//	magic "SWAL" | u32 version | u64 firstSeq        (16-byte header)
//	record*
//
// and each record is
//
//	u32 payloadLen | u32 crc32(payload) | payload
//	payload = u64 seq | u32 kind·entityLen | entity | body
//
// (all little-endian). The top bit of the entity-length word is the record
// kind: clear for a review record (body = review text, the only kind version
// 1 ever wrote) and set for an entity-metadata record (body = JSON-encoded
// EntityMeta). Logs written before metadata existed decode unchanged, and a
// pre-metadata decoder rejects a metadata record as corrupt rather than
// misreading it — the flagged length exceeds any real entity ID. Sequence
// numbers are contiguous within a segment (both kinds consume one) and start
// at the header's firstSeq, so replay can detect a missing or reordered
// record without trusting record contents. The CRC covers the whole payload:
// a torn or bit-flipped record fails the checksum and replay stops at the
// last valid boundary.
const (
	walMagic      = "SWAL"
	walVersion    = 1
	walHeaderSize = 16
	recHeaderSize = 8
	// minPayload is a record with an empty body and a one-byte entity ID.
	minPayload = 13
	// maxRecordSize caps one payload: a decoder must reject anything larger
	// before allocating, so adversarial length prefixes cannot over-allocate
	// (FuzzWALDecode enforces this).
	maxRecordSize = 1 << 20
	// metaFlag marks a metadata record in the entity-length word. It is far
	// above maxRecordSize, so no review record's entity length can collide
	// with it.
	metaFlag = uint32(1) << 31
)

// RecordKind distinguishes what a WAL record carries.
type RecordKind uint8

const (
	// KindReview is one streamed review: body is the review text.
	KindReview RecordKind = iota
	// KindMeta is an entity-metadata upsert: body is a JSON EntityMeta.
	KindMeta
)

// Record is one acknowledged entry in the log: a review (KindReview, Body
// holds the review text) or an entity-metadata upsert (KindMeta, Body holds
// the JSON-encoded EntityMeta).
type Record struct {
	Seq    uint64
	Kind   RecordKind
	Entity string
	Body   string
}

// errTruncated marks a record (or segment header) that stops short: the
// torn-tail case replay repairs, as opposed to corruption it must reject.
var errTruncated = errors.New("ingest: truncated record")

// ErrCorrupt wraps unrecoverable log damage: a checksum or framing failure
// that is not a final-segment torn tail.
var ErrCorrupt = errors.New("ingest: corrupt WAL")

var crcTable = crc32.MakeTable(crc32.IEEE)

// encodeRecord frames one record for the log.
func encodeRecord(seq uint64, kind RecordKind, entity, body string) ([]byte, error) {
	if entity == "" {
		return nil, fmt.Errorf("ingest: empty entity ID")
	}
	if kind > KindMeta {
		return nil, fmt.Errorf("ingest: unknown record kind %d", kind)
	}
	payload := 12 + len(entity) + len(body)
	if payload > maxRecordSize {
		return nil, fmt.Errorf("ingest: record payload %d exceeds %d bytes", payload, maxRecordSize)
	}
	lenWord := uint32(len(entity))
	if kind == KindMeta {
		lenWord |= metaFlag
	}
	buf := make([]byte, recHeaderSize+payload)
	p := buf[recHeaderSize:]
	binary.LittleEndian.PutUint64(p[0:], seq)
	binary.LittleEndian.PutUint32(p[8:], lenWord)
	copy(p[12:], entity)
	copy(p[12+len(entity):], body)
	binary.LittleEndian.PutUint32(buf[0:], uint32(payload))
	binary.LittleEndian.PutUint32(buf[4:], crc32.Checksum(p, crcTable))
	return buf, nil
}

// decodeRecord decodes the record at the head of b, returning it and the
// bytes consumed. errTruncated means b ends before the record does (a torn
// tail); any other error is corruption — bad length, failed CRC, or framing
// that disagrees with itself. The length prefix is validated against
// maxRecordSize before anything is sliced, so a hostile prefix cannot force
// an allocation.
func decodeRecord(b []byte) (Record, int, error) {
	if len(b) < recHeaderSize {
		return Record{}, 0, errTruncated
	}
	payloadLen := int(binary.LittleEndian.Uint32(b[0:]))
	if payloadLen < minPayload || payloadLen > maxRecordSize {
		return Record{}, 0, fmt.Errorf("%w: payload length %d", ErrCorrupt, payloadLen)
	}
	if len(b) < recHeaderSize+payloadLen {
		return Record{}, 0, errTruncated
	}
	p := b[recHeaderSize : recHeaderSize+payloadLen]
	if crc := crc32.Checksum(p, crcTable); crc != binary.LittleEndian.Uint32(b[4:]) {
		return Record{}, 0, fmt.Errorf("%w: checksum mismatch", ErrCorrupt)
	}
	lenWord := binary.LittleEndian.Uint32(p[8:])
	kind := KindReview
	if lenWord&metaFlag != 0 {
		kind = KindMeta
	}
	entityLen := int(lenWord &^ metaFlag)
	if entityLen < 1 || 12+entityLen > payloadLen {
		return Record{}, 0, fmt.Errorf("%w: entity length %d in %d-byte payload", ErrCorrupt, entityLen, payloadLen)
	}
	rec := Record{
		Seq:    binary.LittleEndian.Uint64(p[0:]),
		Kind:   kind,
		Entity: string(p[12 : 12+entityLen]),
		Body:   string(p[12+entityLen:]),
	}
	return rec, recHeaderSize + payloadLen, nil
}

// replaySegment decodes one segment image. It returns the segment's header
// firstSeq, every valid record, and the byte offset of the last valid record
// boundary. tailErr reports how the segment ends: nil for a clean end,
// errTruncated for a torn tail (short header counts), or an ErrCorrupt
// wrapper for checksum/framing damage or a sequence discontinuity.
func replaySegment(data []byte) (firstSeq uint64, recs []Record, validSize int, tailErr error) {
	if len(data) < walHeaderSize {
		return 0, nil, 0, errTruncated
	}
	if string(data[:4]) != walMagic {
		return 0, nil, 0, fmt.Errorf("%w: bad segment magic", ErrCorrupt)
	}
	if v := binary.LittleEndian.Uint32(data[4:]); v != walVersion {
		return 0, nil, 0, fmt.Errorf("%w: unsupported segment version %d", ErrCorrupt, v)
	}
	firstSeq = binary.LittleEndian.Uint64(data[8:])
	off := walHeaderSize
	for off < len(data) {
		rec, n, err := decodeRecord(data[off:])
		if err != nil {
			if errors.Is(err, ErrCorrupt) && recordEndsAtEOF(data, off) {
				// A full-length final record with garbage inside and
				// nothing after it: the other torn-write shape (sectors of
				// the unsynced tail persisted out of order), repairable
				// like a short tail. Damage with decodable bytes beyond it
				// stays ErrCorrupt — truncating there would silently drop
				// acknowledged records.
				return firstSeq, recs, off, errTruncated
			}
			return firstSeq, recs, off, err
		}
		if want := firstSeq + uint64(len(recs)); rec.Seq != want {
			return firstSeq, recs, off, fmt.Errorf("%w: sequence %d where %d expected", ErrCorrupt, rec.Seq, want)
		}
		recs = append(recs, rec)
		off += n
	}
	return firstSeq, recs, off, nil
}

// recordEndsAtEOF reports whether the (undecodable) record at off claims a
// plausible length that reaches exactly the end of data — the only corrupt
// shape a torn append can leave, since an append never has bytes after it.
func recordEndsAtEOF(data []byte, off int) bool {
	if len(data)-off < recHeaderSize {
		return false // a short header is already errTruncated
	}
	payloadLen := int(binary.LittleEndian.Uint32(data[off:]))
	return payloadLen >= minPayload && payloadLen <= maxRecordSize &&
		off+recHeaderSize+payloadLen == len(data)
}

// walSeg is one live segment's bookkeeping.
type walSeg struct {
	name  string
	first uint64
	count int
}

func (s walSeg) last() uint64 { return s.first + uint64(s.count) - 1 }

func segName(firstSeq uint64) string { return fmt.Sprintf("wal-%016x.seg", firstSeq) }

// WAL is the append-only, segmented write-ahead log. One goroutine-safe
// writer; replay happens once at open.
type WAL struct {
	fs     FS
	dir    string
	segMax int

	mu      sync.Mutex
	segs    []walSeg // all live segments, ascending; the last one is open
	cur     File     // open handle on the last segment (nil until first append)
	curSize int
	nextSeq uint64
	// dirDirty marks a segment created since the last directory sync: its
	// dir entry is not yet durable, so the next sync must fence SyncDir
	// before any record in it is acknowledged.
	dirDirty bool
	closed   bool

	appendCtr *obs.Counter
	fsyncHist *obs.Histogram
	segGauge  *obs.Gauge
}

// WALOptions configures OpenWAL. Zero values mean: 1 MiB segments, no
// observer.
type WALOptions struct {
	SegmentBytes int
	Obs          *obs.Observer
}

// OpenWAL opens (or creates) the log in dir and replays it. Every record
// acknowledged before a crash is returned; a torn tail on the final segment
// — or on a segment whose successor picks up at exactly the next sequence
// number, the shape a failed append followed by rotation leaves — is
// truncated away. Any other damage fails with ErrCorrupt rather than
// silently dropping acknowledged data.
func OpenWAL(fsys FS, dir string, opts WALOptions) (*WAL, []Record, error) {
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = 1 << 20
	}
	if err := fsys.MkdirAll(dir); err != nil {
		return nil, nil, fmt.Errorf("ingest: creating WAL dir: %w", err)
	}
	names, err := fsys.ReadDir(dir)
	if err != nil {
		return nil, nil, fmt.Errorf("ingest: scanning WAL dir: %w", err)
	}
	var segNames []string
	for _, n := range names {
		if strings.HasPrefix(n, "wal-") && strings.HasSuffix(n, ".seg") {
			segNames = append(segNames, n)
		}
	}
	sort.Strings(segNames) // %016x names sort numerically

	w := &WAL{
		fs:        fsys,
		dir:       dir,
		segMax:    opts.SegmentBytes,
		nextSeq:   1,
		appendCtr: opts.Obs.Counter("ingest.wal.appends.total"),
		fsyncHist: opts.Obs.Histogram("ingest.wal.fsync"),
		segGauge:  opts.Obs.Gauge("ingest.wal.segments"),
	}

	var all []Record
	type repair struct {
		name string
		size int
	}
	var repairs []repair
	droppedTorn := false
	var prevLast uint64 // last seq seen so far (0 = none)
	for i, name := range segNames {
		data, rerr := fsys.ReadFile(join(dir, name))
		if rerr != nil {
			return nil, nil, fmt.Errorf("ingest: reading segment %s: %w", name, rerr)
		}
		firstSeq, recs, validSize, tailErr := replaySegment(data)
		isLast := i == len(segNames)-1
		if errors.Is(tailErr, errTruncated) && validSize == 0 && isLast {
			// Torn header on the newest segment: the crash hit before the
			// header sync. Nothing in it was acknowledged; drop the file.
			if derr := fsys.Remove(join(dir, name)); derr != nil {
				return nil, nil, fmt.Errorf("ingest: dropping torn segment %s: %w", name, derr)
			}
			droppedTorn = true
			continue
		}
		if tailErr != nil && validSize == 0 {
			return nil, nil, fmt.Errorf("ingest: segment %s: %w", name, tailErr)
		}
		if prevLast != 0 && firstSeq <= prevLast {
			return nil, nil, fmt.Errorf("%w: segment %s starts at %d inside already-replayed range", ErrCorrupt, name, firstSeq)
		}
		if tailErr != nil {
			if isLast {
				// Only the torn-write shape (errTruncated, including a
				// garbage final record ending exactly at EOF) is repaired
				// by truncation. CRC or framing damage with further
				// records behind it means acknowledged data would be
				// silently dropped — fail instead.
				if !errors.Is(tailErr, errTruncated) {
					return nil, nil, fmt.Errorf("ingest: segment %s: %w", name, tailErr)
				}
				repairs = append(repairs, repair{name, validSize})
			} else {
				// A damaged tail mid-log is excusable only in the
				// rotated-after-write-error shape: the next segment must
				// continue exactly where the valid prefix ends.
				nextData, nerr := fsys.ReadFile(join(dir, segNames[i+1]))
				if nerr != nil {
					return nil, nil, fmt.Errorf("ingest: reading segment %s: %w", segNames[i+1], nerr)
				}
				nextFirst, _, _, _ := replaySegment(nextData)
				if len(nextData) < walHeaderSize || nextFirst != firstSeq+uint64(len(recs)) {
					return nil, nil, fmt.Errorf("ingest: segment %s: %w (and successor does not continue it)", name, tailErr)
				}
				repairs = append(repairs, repair{name, validSize})
			}
		}
		all = append(all, recs...)
		w.segs = append(w.segs, walSeg{name: name, first: firstSeq, count: len(recs)})
		if len(recs) > 0 {
			prevLast = firstSeq + uint64(len(recs)) - 1
		} else if firstSeq > 0 {
			prevLast = firstSeq - 1
		}
	}
	for _, r := range repairs {
		f, oerr := fsys.Append(join(dir, r.name))
		if oerr != nil {
			return nil, nil, fmt.Errorf("ingest: repairing segment %s: %w", r.name, oerr)
		}
		terr := f.Truncate(int64(r.size))
		cerr := f.Close()
		if terr != nil {
			return nil, nil, fmt.Errorf("ingest: truncating torn tail of %s: %w", r.name, terr)
		}
		if cerr != nil {
			return nil, nil, fmt.Errorf("ingest: repairing segment %s: %w", r.name, cerr)
		}
	}
	if droppedTorn {
		if err := fsys.SyncDir(dir); err != nil {
			return nil, nil, fmt.Errorf("ingest: syncing WAL dir after repair: %w", err)
		}
	}
	if prevLast != 0 {
		w.nextSeq = prevLast + 1
	}
	w.segGauge.Set(float64(len(w.segs)))
	return w, all, nil
}

// EnsureNext raises the WAL's next sequence number to at least seq (used
// after recovery when a checkpoint's watermark outruns the surviving log).
func (w *WAL) EnsureNext(seq uint64) {
	w.mu.Lock()
	if seq > w.nextSeq {
		w.nextSeq = seq
	}
	w.mu.Unlock()
}

// NextSeq returns the sequence number the next append will take.
func (w *WAL) NextSeq() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.nextSeq
}

// Append durably logs one review and returns its sequence number. A nil
// error means the record is on stable storage — this is the acknowledgment
// the ingest tier's durability contract hangs on. On a write error the
// partial record is truncated away (or, failing that, the segment is
// abandoned and the next append rotates), so a failed append can never
// corrupt the log for its successors.
func (w *WAL) Append(entity, review string) (uint64, error) {
	return w.append(KindReview, entity, review)
}

// AppendMeta durably logs one entity-metadata upsert (body is the JSON
// EntityMeta) under the same durability contract as Append.
func (w *WAL) AppendMeta(entity, body string) (uint64, error) {
	return w.append(KindMeta, entity, body)
}

func (w *WAL) append(kind RecordKind, entity, body string) (uint64, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return 0, fmt.Errorf("ingest: WAL is closed")
	}
	rec, err := encodeRecord(w.nextSeq, kind, entity, body)
	if err != nil {
		return 0, err
	}
	if err := w.ensureSegmentLocked(len(rec)); err != nil {
		return 0, err
	}
	n, werr := w.cur.Write(rec)
	if werr != nil || n != len(rec) {
		// Back the partial record out so the segment stays record-aligned.
		// If even that fails, abandon the handle: the next append rotates to
		// a fresh segment, and replay accepts this segment's damaged tail
		// because the successor continues the sequence.
		if terr := w.cur.Truncate(int64(w.curSize)); terr != nil {
			_ = w.cur.Close()
			w.cur = nil
		}
		if werr == nil {
			werr = fmt.Errorf("ingest: short write (%d of %d bytes)", n, len(rec))
		}
		return 0, werr
	}
	w.curSize += len(rec)
	w.segs[len(w.segs)-1].count++
	seq := w.nextSeq
	w.nextSeq++
	if err := w.syncLocked(); err != nil {
		// The record is written but not known durable: undo the
		// bookkeeping and report failure — the caller must not
		// acknowledge. A crash may or may not keep the bytes; replay
		// tolerates both (the record was never acknowledged).
		w.segs[len(w.segs)-1].count--
		w.curSize -= len(rec)
		w.nextSeq = seq
		if terr := w.cur.Truncate(int64(w.curSize)); terr != nil {
			_ = w.cur.Close()
			w.cur = nil
		}
		return 0, err
	}
	w.appendCtr.Inc()
	return seq, nil
}

// Sync fsyncs the open segment and, if it is new, its directory entry.
// Every acknowledged append has already done both, so Sync adds no
// durability an ack lacks; it is the explicit barrier Ingester.Flush takes
// before publishing.
func (w *WAL) Sync() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed || w.cur == nil {
		return nil
	}
	return w.syncLocked()
}

func (w *WAL) syncLocked() error {
	t0 := time.Now()
	if err := w.cur.Sync(); err != nil {
		return err
	}
	if w.dirDirty {
		// The segment's content is durable but its directory entry may not
		// be: without this fence a crash can drop the whole file and with
		// it records the file sync just "made durable".
		if err := w.fs.SyncDir(w.dir); err != nil {
			return err
		}
		w.dirDirty = false
	}
	w.fsyncHist.Observe(time.Since(t0))
	return nil
}

// ensureSegmentLocked opens the segment the next record lands in: the
// current one, or — when there is none, the record would overflow segMax, or
// the sequence jumped past the segment's contiguous range — a fresh one
// whose header names the next sequence number.
func (w *WAL) ensureSegmentLocked(recLen int) error {
	if w.cur != nil {
		cs := w.segs[len(w.segs)-1]
		contiguous := w.nextSeq == cs.first+uint64(cs.count)
		if contiguous && (cs.count == 0 || w.curSize+recLen <= w.segMax) {
			return nil
		}
		if err := w.rotateOutLocked(); err != nil {
			return err
		}
	}
	name := segName(w.nextSeq)
	f, err := w.fs.Create(join(w.dir, name))
	if err != nil {
		return err
	}
	hdr := make([]byte, walHeaderSize)
	copy(hdr, walMagic)
	binary.LittleEndian.PutUint32(hdr[4:], walVersion)
	binary.LittleEndian.PutUint64(hdr[8:], w.nextSeq)
	if _, err := f.Write(hdr); err != nil {
		_ = f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		_ = f.Close()
		return err
	}
	w.cur = f
	w.curSize = walHeaderSize
	w.dirDirty = true
	w.segs = append(w.segs, walSeg{name: name, first: w.nextSeq})
	w.segGauge.Set(float64(len(w.segs)))
	return nil
}

// rotateOutLocked seals the current segment: final sync (so a sealed
// segment is always fully durable) and close.
func (w *WAL) rotateOutLocked() error {
	if w.cur == nil {
		return nil
	}
	if err := w.syncLocked(); err != nil {
		return err
	}
	err := w.cur.Close()
	w.cur = nil
	w.curSize = 0
	return err
}

// TruncateTo removes every segment whose records all have seq ≤ watermark —
// the compaction step once a checkpoint at watermark is durable. The open
// segment is sealed and rotated away first if it is fully covered. Removal
// runs oldest-first, so a crash mid-truncate leaves a contiguous suffix of
// the log (plus the checkpoint) and recovery still sees every record past
// the watermark.
func (w *WAL) TruncateTo(watermark uint64) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return fmt.Errorf("ingest: WAL is closed")
	}
	if n := len(w.segs); n > 0 && w.cur != nil {
		cs := w.segs[n-1]
		if cs.count > 0 && cs.last() <= watermark {
			if err := w.rotateOutLocked(); err != nil {
				return err
			}
		}
	}
	kept := w.segs[:0]
	removedAny := false
	for i, s := range w.segs {
		open := w.cur != nil && i == len(w.segs)-1
		covered := s.count > 0 && s.last() <= watermark
		stale := s.count == 0 && !open && s.first <= watermark+1
		if (covered || stale) && !open {
			if err := w.fs.Remove(join(w.dir, s.name)); err != nil {
				// Keep this and every later segment; a retry (or the next
				// compaction) finishes the job.
				kept = append(kept, w.segs[i:]...)
				w.segs = kept
				w.segGauge.Set(float64(len(w.segs)))
				return err
			}
			removedAny = true
			continue
		}
		kept = append(kept, s)
	}
	w.segs = kept
	w.segGauge.Set(float64(len(w.segs)))
	if removedAny {
		// Make the unlinks stick. Not load-bearing for safety (a crash
		// resurrecting removed segments replays records at or below a
		// durable checkpoint, which recovery skips) but it bounds how much
		// superseded log a crash can bring back.
		return w.fs.SyncDir(w.dir)
	}
	return nil
}

// SegmentCount returns the number of live segment files.
func (w *WAL) SegmentCount() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.segs)
}

// Close seals the log (final sync) and releases the open segment.
func (w *WAL) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return nil
	}
	w.closed = true
	if w.cur == nil {
		return nil
	}
	serr := w.syncLocked()
	cerr := w.cur.Close()
	w.cur = nil
	if serr != nil {
		return serr
	}
	return cerr
}
