package wal

import (
	"bytes"
	"errors"
	"testing"

	"bg3/internal/storage"
)

// Regression tests for the single-record-larger-than-extent gap: a record
// that cannot fit one storage append even as a group of its own. The
// contract depends on whether an LSN exists yet:
//
//   - the GroupCommitter rejects it at admission, before an LSN exists — plain
//     ErrRecordTooLarge, so a caller mistake costs one write, not the log;
//   - sealing an assigned record must fail-stop (ErrWriterFailed wrapping
//     ErrRecordTooLarge): the LSN is already assigned, so skipping the
//     record would punch a hole recovery can't tell from data loss.

func oversizedRecord(st *storage.Store) *Record {
	return &Record{
		Type:  RecordPut,
		Key:   []byte("huge"),
		Value: bytes.Repeat([]byte{0xAB}, st.ExtentSize()+1),
	}
}

func TestAppendAssignedOversizedRecordFailsStop(t *testing.T) {
	st := storage.Open(&storage.Options{ExtentSize: 512})
	w := NewWriter(st)

	huge := oversizedRecord(st)
	huge.LSN = 1
	err := appendAssigned(w, huge)
	if !errors.Is(err, ErrWriterFailed) {
		t.Fatalf("err = %v, want ErrWriterFailed", err)
	}
	if !errors.Is(err, ErrRecordTooLarge) {
		t.Fatalf("err = %v, want wrapped ErrRecordTooLarge", err)
	}

	// Fail-stop: every later append reports the poisoning error.
	if _, err := appendNext(w, &Record{Type: RecordPut, Key: []byte("x")}); !errors.Is(err, ErrWriterFailed) {
		t.Fatalf("writer accepted a record after fail-stop: %v", err)
	}
	if recs, perr := NewReader(st).Poll(); perr != nil || len(recs) != 0 {
		t.Fatalf("WAL = %d records (err %v), want empty", len(recs), perr)
	}
}

func TestAppendAssignedOversizedValidatesBeforePersisting(t *testing.T) {
	st := storage.Open(&storage.Options{ExtentSize: 512})
	w := NewWriter(st)

	// The oversized record sits behind two valid ones; validation must run
	// before any of them persists, or recovery would see a partial batch.
	huge := oversizedRecord(st)
	huge.LSN = 3
	batch := []*Record{
		{Type: RecordPut, LSN: 1, Key: []byte("a")},
		{Type: RecordPut, LSN: 2, Key: []byte("b")},
		huge,
	}
	if err := appendAssigned(w, batch...); !errors.Is(err, ErrWriterFailed) || !errors.Is(err, ErrRecordTooLarge) {
		t.Fatalf("err = %v, want ErrWriterFailed wrapping ErrRecordTooLarge", err)
	}
	if recs, err := NewReader(st).Poll(); err != nil || len(recs) != 0 {
		t.Fatalf("WAL = %d records (err %v), want empty — batch must not partially persist", len(recs), err)
	}
}

func TestGroupCommitterRejectsOversizedAtAdmission(t *testing.T) {
	st := storage.Open(&storage.Options{ExtentSize: 512})
	w := NewWriter(st)
	c := NewGroupCommitter(w, GroupCommitterOptions{})
	defer c.Stop()

	_, err := c.Log(oversizedRecord(st))
	if !errors.Is(err, ErrRecordTooLarge) {
		t.Fatalf("err = %v, want ErrRecordTooLarge", err)
	}
	if errors.Is(err, ErrWriterFailed) {
		t.Fatalf("admission rejection poisoned the writer: %v", err)
	}

	// The committer never assigned the record an LSN: the log stays gapless
	// and live.
	lsn, err := c.Log(&Record{Type: RecordPut, Key: []byte("ok")})
	if err != nil || lsn != 1 {
		t.Fatalf("Log after rejection = (%d, %v), want (1, nil)", lsn, err)
	}
	recs, err := NewReader(st).Poll()
	if err != nil || len(recs) != 1 || recs[0].LSN != 1 {
		t.Fatalf("WAL = %d records (err %v), want exactly LSN 1", len(recs), err)
	}
}

// TestMaxRecordSizeIsExact pins the admission bound at its edge: a record of
// exactly MaxRecordSize bytes seals into a group of its own, under an epoch
// and a first LSN of the widest uvarints, and appends within the group limit;
// one byte more is refused at admission, before an LSN is assigned.
func TestMaxRecordSizeIsExact(t *testing.T) {
	st := storage.Open(&storage.Options{ExtentSize: 512})
	const wide = 1 << 63 // an LSN and an epoch of the widest uvarints
	if err := st.OpenStreamEpoch(storage.StreamWAL, wide); err != nil {
		t.Fatal(err)
	}
	w := NewWriterFromEpoch(st, wide, wide)
	c := NewGroupCommitter(w, GroupCommitterOptions{})
	defer c.Stop()
	record := func(size int) *Record {
		r := &Record{Type: RecordPut, Key: []byte("edge")}
		r.Value = make([]byte, size-encodedSize(r)-1) // the value's length stays one byte wide
		if n := encodedSize(r); n != size {
			t.Fatalf("fixture: record of %d bytes, want %d", n, size)
		}
		return r
	}

	max := w.MaxRecordSize()
	if _, err := c.Log(record(max + 1)); !errors.Is(err, ErrRecordTooLarge) || errors.Is(err, ErrWriterFailed) {
		t.Fatalf("a record of MaxRecordSize+1 = %d bytes: %v, want ErrRecordTooLarge at admission", max+1, err)
	}
	if got := c.LastLSN(); got != wide-1 {
		t.Fatalf("the refused record took an LSN: last LSN %d", got)
	}
	lsn, err := c.Log(record(max))
	if err != nil || lsn != wide {
		t.Fatalf("a record of MaxRecordSize = %d bytes: lsn %d, %v; want %d appended", max, lsn, err, uint64(wide))
	}
	if appends := w.appends.Load(); appends != 1 {
		t.Fatalf("%d appends, want the record alone in one", appends)
	}
	entries, _, err := st.Scan(storage.StreamWAL, storage.Cursor{}, 0)
	if err != nil || len(entries) != 1 || len(entries[0].Data) > w.groupLimit() {
		t.Fatalf("log: %d entries (%v), want one group within the %d-byte limit", len(entries), err, w.groupLimit())
	}
}
