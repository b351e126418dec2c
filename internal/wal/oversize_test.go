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
