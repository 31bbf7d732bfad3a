package ingest

import (
	"errors"
	"fmt"
	"testing"
)

// appendN appends reviews r<1>…r<n> for entities cycling a..c and returns
// the acknowledged records in order.
func appendN(t *testing.T, w *WAL, from, n int) []Record {
	t.Helper()
	var out []Record
	for i := from; i < from+n; i++ {
		entity := fmt.Sprintf("e%d", i%3)
		review := fmt.Sprintf("review %d with some padding to give records a bit of width", i)
		seq, err := w.Append(entity, review)
		if err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
		out = append(out, Record{Seq: seq, Entity: entity, Body: review})
	}
	return out
}

func mustOpenWAL(t *testing.T, fs FS, opts WALOptions) (*WAL, []Record) {
	t.Helper()
	w, recs, err := OpenWAL(fs, "wal", opts)
	if err != nil {
		t.Fatalf("open WAL: %v", err)
	}
	return w, recs
}

func wantRecords(t *testing.T, got, want []Record) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("record %d: got %+v want %+v", i, got[i], want[i])
		}
	}
}

func TestWALAppendReplayAcrossRotation(t *testing.T) {
	fs := NewMemFS()
	// Tiny segments force several rotations.
	w, recs := mustOpenWAL(t, fs, WALOptions{SegmentBytes: 256})
	if len(recs) != 0 {
		t.Fatalf("fresh log replayed %d records", len(recs))
	}
	want := appendN(t, w, 0, 40)
	if w.SegmentCount() < 2 {
		t.Fatalf("expected rotation, got %d segment(s)", w.SegmentCount())
	}
	if err := w.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	_, got := mustOpenWAL(t, fs, WALOptions{SegmentBytes: 256})
	wantRecords(t, got, want)
}

func TestWALReplayEmptyDirAndSeqStart(t *testing.T) {
	fs := NewMemFS()
	w, recs := mustOpenWAL(t, fs, WALOptions{})
	if len(recs) != 0 {
		t.Fatalf("empty dir replayed %d records", len(recs))
	}
	if got := w.NextSeq(); got != 1 {
		t.Fatalf("fresh WAL NextSeq = %d, want 1", got)
	}
	w.EnsureNext(100)
	acked := appendN(t, w, 0, 3)
	if acked[0].Seq != 100 {
		t.Fatalf("first seq after EnsureNext(100) = %d, want 100", acked[0].Seq)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	_, got := mustOpenWAL(t, fs, WALOptions{})
	wantRecords(t, got, acked)
}

func TestWALCorruptMiddleRejected(t *testing.T) {
	fs := NewMemFS()
	w, _ := mustOpenWAL(t, fs, WALOptions{SegmentBytes: 256})
	acked := appendN(t, w, 0, 40)
	if w.SegmentCount() < 2 {
		t.Fatalf("expected rotation, got %d segment(s)", w.SegmentCount())
	}
	if err := w.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	// Flip a byte in the middle of the FIRST segment. The damage is mid-log:
	// the successor segment does not continue from the surviving prefix, so
	// replay must refuse rather than silently drop acknowledged records.
	// (Damage at the tail of the LAST segment is different — that is the
	// torn-write shape, repaired by truncation; see the crash tests.)
	name := join("wal", segName(acked[0].Seq))
	if err := fs.Corrupt(name, fs.Len(name)/2); err != nil {
		t.Fatalf("corrupt: %v", err)
	}
	_, _, err := OpenWAL(fs, "wal", WALOptions{SegmentBytes: 256})
	if err == nil {
		t.Fatalf("reopen accepted a corrupt mid-log segment")
	}
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("reopen error = %v, want ErrCorrupt", err)
	}
}

func TestWALCorruptLastSegmentMidFileRejected(t *testing.T) {
	// Damage in the MIDDLE of the final segment — with acknowledged records
	// decodable beyond it — is corruption, not a torn tail: repair-by-
	// truncation would silently drop those later records, so replay must
	// refuse.
	fs := NewMemFS()
	w, _ := mustOpenWAL(t, fs, WALOptions{})
	acked := appendN(t, w, 0, 12)
	if err := w.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if w.SegmentCount() != 1 {
		t.Fatalf("want a single segment, got %d", w.SegmentCount())
	}
	name := join("wal", segName(acked[0].Seq))
	if err := fs.Corrupt(name, fs.Len(name)/2); err != nil {
		t.Fatalf("corrupt: %v", err)
	}
	_, _, err := OpenWAL(fs, "wal", WALOptions{})
	if err == nil {
		t.Fatalf("reopen truncated away acknowledged records after mid-segment damage")
	}
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("reopen error = %v, want ErrCorrupt", err)
	}
}

func TestWALCorruptFinalRecordRepairedAsTornTail(t *testing.T) {
	// Damage inside the LAST record — garbage bytes, full-length framing,
	// nothing after it — is the shape a torn write leaves when sectors
	// persist out of order. Replay repairs it by truncation and every
	// earlier record survives.
	fs := NewMemFS()
	w, _ := mustOpenWAL(t, fs, WALOptions{})
	acked := appendN(t, w, 0, 12)
	if err := w.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	name := join("wal", segName(acked[0].Seq))
	if err := fs.Corrupt(name, fs.Len(name)-3); err != nil {
		t.Fatalf("corrupt: %v", err)
	}
	_, got, err := OpenWAL(fs, "wal", WALOptions{})
	if err != nil {
		t.Fatalf("reopen after torn final record: %v", err)
	}
	wantRecords(t, got, acked[:len(acked)-1])
}

func TestWALCrashWithoutDirSyncKeepsAckedRecords(t *testing.T) {
	// Every ack implies the segment's directory entry is durable too: a
	// crash right after the ack (nothing else synced) must not lose the
	// record — the regression a missing SyncDir fence causes, now modeled
	// by MemFS dropping files whose entry never reached a directory sync.
	fs := NewMemFS()
	w, _ := mustOpenWAL(t, fs, WALOptions{})
	acked := appendN(t, w, 0, 3)
	_, got, err := OpenWAL(fs.Crash(0), "wal", WALOptions{})
	if err != nil {
		t.Fatalf("reopen after crash: %v", err)
	}
	wantRecords(t, got, acked)
}

func TestWALWriteErrorRotatesAndRecovers(t *testing.T) {
	fs := NewMemFS()
	w, _ := mustOpenWAL(t, fs, WALOptions{})
	acked := appendN(t, w, 0, 6)

	// Exhaust the op budget so the next append's write fails half-way AND
	// the back-out truncate fails too: the segment is left with a torn tail
	// and the handle is abandoned.
	fs.SetFailAfter(0)
	if _, err := w.Append("eX", "doomed review"); err == nil {
		t.Fatalf("append succeeded under fault injection")
	}
	fs.SetFailAfter(-1)

	// The next append must rotate to a fresh segment and keep going.
	acked = append(acked, appendN(t, w, 6, 4)...)
	if w.SegmentCount() < 2 {
		t.Fatalf("expected rotation after abandoned segment, got %d", w.SegmentCount())
	}
	if err := w.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	// Replay: the first segment's damaged tail is excused because its
	// successor continues the sequence exactly; every acked record survives.
	_, got, err := OpenWAL(fs, "wal", WALOptions{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	wantRecords(t, got, acked)
}

func TestWALTruncateTo(t *testing.T) {
	fs := NewMemFS()
	w, _ := mustOpenWAL(t, fs, WALOptions{SegmentBytes: 256})
	acked := appendN(t, w, 0, 40)
	before := w.SegmentCount()
	if before < 3 {
		t.Fatalf("want ≥3 segments, got %d", before)
	}
	watermark := acked[20].Seq
	if err := w.TruncateTo(watermark); err != nil {
		t.Fatalf("truncate: %v", err)
	}
	if after := w.SegmentCount(); after >= before {
		t.Fatalf("truncation removed nothing: %d → %d segments", before, after)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	_, got, err := OpenWAL(fs, "wal", WALOptions{SegmentBytes: 256})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if len(got) == 0 {
		t.Fatalf("truncation dropped the whole log")
	}
	// Everything past the watermark must survive; the surviving records are
	// a contiguous suffix of the acked stream.
	first := got[0].Seq
	for _, r := range acked {
		if r.Seq > watermark {
			if first > r.Seq {
				t.Fatalf("record %d (past watermark %d) lost by truncation", r.Seq, watermark)
			}
			break
		}
	}
	wantRecords(t, got, acked[first-acked[0].Seq:])
}

func TestWALFullyTruncatedLogContinuesSequence(t *testing.T) {
	fs := NewMemFS()
	w, _ := mustOpenWAL(t, fs, WALOptions{})
	acked := appendN(t, w, 0, 8)
	last := acked[len(acked)-1].Seq
	if err := w.TruncateTo(last); err != nil {
		t.Fatalf("truncate: %v", err)
	}
	more := appendN(t, w, 8, 3)
	if more[0].Seq != last+1 {
		t.Fatalf("append after full truncation got seq %d, want %d", more[0].Seq, last+1)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	_, got, err := OpenWAL(fs, "wal", WALOptions{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	wantRecords(t, got, more)
}

func TestWALRejectsOversizeAndEmptyEntity(t *testing.T) {
	fs := NewMemFS()
	w, _ := mustOpenWAL(t, fs, WALOptions{})
	if _, err := w.Append("", "review"); err == nil {
		t.Fatalf("append accepted an empty entity ID")
	}
	big := make([]byte, maxRecordSize)
	if _, err := w.Append("e1", string(big)); err == nil {
		t.Fatalf("append accepted an oversized record")
	}
	if _, err := w.Append("e1", "normal"); err != nil {
		t.Fatalf("normal append after rejections: %v", err)
	}
}
