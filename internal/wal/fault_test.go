package wal

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"bg3/internal/storage"
)

// noSleep makes retry backoff free in tests.
func noSleep(p storage.RetryPolicy) storage.RetryPolicy {
	p.Sleep = func(time.Duration) {}
	return p
}

func TestWriterRetriesTransientAppend(t *testing.T) {
	plan := storage.NewFaultPlan(storage.FaultConfig{Seed: 1})
	st := storage.Open(&storage.Options{Faults: plan})
	w := NewWriter(st)
	w.SetRetry(noSleep(storage.DefaultRetry))
	plan.SetEnabled(false)

	// Exactly one transient failure: the retry must absorb it and ack.
	plan.SetEnabled(true)
	plan.TearNext()
	lsn, err := appendNext(w, &Record{Type: RecordPut, Key: []byte("k"), Value: []byte("v")})
	if err != nil {
		t.Fatalf("append with one torn write: %v", err)
	}
	if lsn != 1 {
		t.Fatalf("lsn = %d, want 1", lsn)
	}
	if w.Err() != nil {
		t.Fatalf("writer poisoned by an absorbed fault: %v", w.Err())
	}

	// The stream now holds a torn prefix plus the retried full copy; a
	// reader must surface the record exactly once.
	plan.SetEnabled(false)
	r := NewReader(st)
	recs, err := r.Poll()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].LSN != 1 || string(recs[0].Key) != "k" {
		t.Fatalf("poll after torn retry = %v", recs)
	}
	torn, dups := r.Stats()
	if torn != 1 {
		t.Fatalf("torn entries absorbed = %d, want 1", torn)
	}
	_ = dups // the torn prefix failed its checksum, so no duplicate decoded
}

func TestWriterFailsStopAfterExhaustedRetries(t *testing.T) {
	plan := storage.NewFaultPlan(storage.FaultConfig{Seed: 2, AppendFailProb: 1})
	st := storage.Open(&storage.Options{Faults: plan})
	w := NewWriter(st)
	w.SetRetry(noSleep(storage.RetryPolicy{MaxAttempts: 3}))

	_, err := appendNext(w, &Record{Type: RecordPut, Key: []byte("k")})
	if !errors.Is(err, ErrWriterFailed) {
		t.Fatalf("err = %v, want ErrWriterFailed", err)
	}
	if !errors.Is(err, storage.ErrTransient) {
		t.Fatalf("poison error %v does not preserve the storage cause", err)
	}
	// Satellite contract: the wrapped error carries LSN and stream context.
	if want := "lsn 1..1"; !contains(err.Error(), want) {
		t.Fatalf("error %q missing %q", err, want)
	}
	if !contains(err.Error(), storage.StreamWAL.String()) {
		t.Fatalf("error %q missing the stream name", err)
	}

	// Fail-stop: the plan is healthy again, but the writer must refuse to
	// continue — a success here would leave LSN 1 as a permanent hole.
	plan.SetEnabled(false)
	if _, err := appendNext(w, &Record{Type: RecordPut}); !errors.Is(err, ErrWriterFailed) {
		t.Fatalf("poisoned writer accepted an append: %v", err)
	}
	if w.Err() == nil {
		t.Fatal("Err() nil on a poisoned writer")
	}
}

func contains(s, sub string) bool { return strings.Contains(s, sub) }

func TestReaderDropsTornBatchTailAndDedups(t *testing.T) {
	plan := storage.NewFaultPlan(storage.FaultConfig{Seed: 3})
	st := storage.Open(&storage.Options{Faults: plan})
	w := NewWriter(st)
	w.SetRetry(noSleep(storage.DefaultRetry))

	recs := make([]*Record, 5)
	for i := range recs {
		recs[i] = &Record{Type: RecordPut, Key: []byte{byte('a' + i)}}
	}
	// Tear the batch append: a prefix of the batch lands (some complete
	// frames plus garbage), then the retry appends the whole batch again.
	plan.TearNext()
	if _, err := appendNext(w, recs...); err != nil {
		t.Fatalf("batch with torn first attempt: %v", err)
	}

	r := NewReader(st)
	got, err := r.Poll()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(recs) {
		t.Fatalf("polled %d records, want %d exactly once each", len(got), len(recs))
	}
	for i, rec := range got {
		if rec.LSN != LSN(i+1) {
			t.Fatalf("record %d has LSN %d", i, rec.LSN)
		}
	}
	torn, dups := r.Stats()
	if torn != 1 {
		t.Fatalf("torn = %d, want 1", torn)
	}
	// Whether duplicates appear depends on where the tear cut: complete
	// frames in the torn prefix are re-delivered by the retry.
	t.Logf("dedup absorbed %d duplicate records", dups)
}

func TestReaderReportsGap(t *testing.T) {
	st := storage.Open(nil)
	w := NewWriter(st)
	for i := 0; i < 3; i++ {
		if _, err := appendNext(w, &Record{Type: RecordPut, Key: []byte{byte(i)}}); err != nil {
			t.Fatal(err)
		}
	}
	// Forge a hole: skip LSN 4 and append 5 directly.
	forged := &Record{Type: RecordPut, LSN: 5, Key: []byte("z")}
	buf := frameGroup(GroupMeta{First: 5, Count: 1}, [][]byte{Encode(forged)})
	if _, err := st.Append(storage.StreamWAL, 0, buf); err != nil {
		t.Fatal(err)
	}

	// With reordering disabled (strict depth-1 semantics) the hole is an
	// immediate GapError.
	strict := NewReader(st)
	strict.SetReorderWindow(0)
	recs, err := strict.Poll()
	var gap *GapError
	if !errors.As(err, &gap) {
		t.Fatalf("err = %v, want *GapError", err)
	}
	if gap.Expected != 4 || gap.Got != 5 {
		t.Fatalf("gap = %+v, want expected 4 got 5", gap)
	}
	if len(recs) != 3 {
		t.Fatalf("records before the hole = %d, want 3", len(recs))
	}
	// The cursor did not advance past the hole: a second poll re-reports
	// the gap instead of silently skipping it.
	if _, err := strict.Poll(); !errors.As(err, &gap) {
		t.Fatalf("second poll err = %v, want the gap again", err)
	}

	// A windowed reader first parks the group — the hole could be a
	// pipelined append still in flight — and only escalates to a GapError
	// after repeated polls show no progress.
	r := NewReader(st)
	recs, err = r.Poll()
	if err != nil {
		t.Fatalf("windowed first poll: %v", err)
	}
	if len(recs) != 3 {
		t.Fatalf("windowed poll delivered %d records, want 3", len(recs))
	}
	if r.PendingGroups() != 1 {
		t.Fatalf("pending groups = %d, want the post-hole group parked", r.PendingGroups())
	}
	err = nil
	for i := 0; i < defaultStuckPolls+2 && err == nil; i++ {
		_, err = r.Poll()
	}
	if !errors.As(err, &gap) {
		t.Fatalf("stuck polls err = %v, want *GapError", err)
	}
	if gap.Expected != 4 || gap.Got != 5 {
		t.Fatalf("escalated gap = %+v, want expected 4 got 5", gap)
	}
}

func TestReaderSetBaseSkipsSnapshotPrefix(t *testing.T) {
	st := storage.Open(nil)
	w := NewWriter(st)
	for i := 0; i < 6; i++ {
		if _, err := appendNext(w, &Record{Type: RecordPut, Key: []byte{byte(i)}}); err != nil {
			t.Fatal(err)
		}
	}
	r := NewReader(st)
	r.SetBase(4)
	recs, err := r.Poll()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || recs[0].LSN != 5 || recs[1].LSN != 6 {
		t.Fatalf("poll with base 4 = %v, want LSNs 5,6", lsnsOf(recs))
	}
	if _, dups := r.Stats(); dups != 4 {
		t.Fatalf("dups = %d, want the 4 pre-base records dropped", dups)
	}
}

func lsnsOf(recs []*Record) []LSN {
	out := make([]LSN, len(recs))
	for i, r := range recs {
		out[i] = r.LSN
	}
	return out
}

func TestWriterErrWrappingIsMatchable(t *testing.T) {
	plan := storage.NewFaultPlan(storage.FaultConfig{Seed: 9, TornWriteProb: 1})
	st := storage.Open(&storage.Options{Faults: plan})
	w := NewWriter(st)
	w.SetRetry(noSleep(storage.RetryPolicy{MaxAttempts: 2}))
	_, err := appendNext(w,
		&Record{Type: RecordPut, Key: []byte("a")},
		&Record{Type: RecordPut, Key: []byte("b")},
	)
	for _, target := range []error{ErrWriterFailed, storage.ErrTornWrite} {
		if !errors.Is(err, target) {
			t.Errorf("errors.Is(%v, %v) = false", err, target)
		}
	}
	if want := fmt.Sprintf("lsn %d..%d", 1, 2); !contains(err.Error(), want) {
		t.Errorf("error %q missing batch LSN range %q", err, want)
	}
}
