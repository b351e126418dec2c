package wal

import (
	"bytes"
	"encoding/hex"
	"errors"
	"reflect"
	"sync"
	"testing"
	"testing/quick"

	"bg3/internal/storage"
)

func TestEncodeDecodeRoundTrip(t *testing.T) {
	in := &Record{
		Type: RecordSplit, TreeID: 7, PageID: 12, AuxPage: 13,
		Key: []byte("split-key"), Value: []byte("v"),
	}
	out, err := Decode(appendRecord(nil, in))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip mismatch:\n in=%+v\nout=%+v", in, out)
	}
}

func TestEncodeDecodeEmptyKeyValue(t *testing.T) {
	in := &Record{Type: RecordCheckpoint, CkptLSN: 34}
	out, err := Decode(appendRecord(nil, in))
	if err != nil {
		t.Fatal(err)
	}
	if out.CkptLSN != 34 || out.Type != RecordCheckpoint || out.Key != nil || out.Value != nil {
		t.Fatalf("decode = %+v", out)
	}
}

func TestDecodeCorrupt(t *testing.T) {
	valid := appendRecord(nil, &Record{Type: RecordPut, Key: []byte("k")})
	cases := [][]byte{
		nil,
		{1, 2, 3},                // header cut short
		valid[:len(valid)-1],     // key cut short
		make([]byte, len(valid)), // type 0
		append(valid, 0xFF),      // a trailing byte
		// tree in 11 bytes, the rest of an empty put behind it: overflows 64 bits
		append([]byte{1}, append(bytes.Repeat([]byte{0xFF}, 10), 1, 0, 0, 0, 0, 0)...),
		// tree 0 as the two bytes 0x80 0x00: not the shortest form
		{1, 0x80, 0x00, 0, 0, 0, 1, 0, 'k'},
	}
	for i, buf := range cases {
		if _, err := Decode(buf); err == nil {
			t.Fatalf("case %d: corrupt input decoded without error", i)
		}
	}
}

func TestPropertyEncodeDecode(t *testing.T) {
	f := func(typ uint8, tree, page, aux uint64, key, value []byte) bool {
		rt := RecordType(typ%7) + 1
		in := &Record{Type: rt, TreeID: tree, PageID: page, AuxPage: aux, Key: key, Value: value}
		out, err := Decode(appendRecord(nil, in))
		if err != nil {
			return false
		}
		return out.Type == rt && out.TreeID == tree && out.PageID == page &&
			out.AuxPage == aux && bytes.Equal(out.Key, key) && bytes.Equal(out.Value, value)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestSealedEnvelopeIsGolden pins the bytes on storage: a fixed batch seals
// to exactly this envelope, its meta block, record lengths and record headers
// uvarints, whether it is sealed into a fresh buffer or a recycled one.
func TestSealedEnvelopeIsGolden(t *testing.T) {
	const golden = "3e00000095427b55b60307041901010200000f037372633a34322f666f6c6c6f772f37" +
		"703d3108020102010001006b0a0305090a0003007365700b06000310060004000102ff"
	// Sealed into a fresh buffer, and into a recycled one that still holds
	// an older group's bytes.
	dirty := func(size int) []byte { return bytes.Repeat([]byte{0xAA}, size+64)[:0] }
	for _, frame := range []func(int) []byte{nil, dirty} {
		w := NewWriterFromEpoch(storage.Open(nil), 7, 3)
		groups, err := w.SealAssigned(nil, []*Record{
			{LSN: 7, Type: RecordPut, TreeID: 1, PageID: 2, Key: []byte("src:42/follow/7"), Value: []byte("p=1")},
			{LSN: 8, Type: RecordDelete, TreeID: 1, PageID: 2, AuxPage: 1, Key: []byte("k")},
			{LSN: 9, Type: RecordSplit, TreeID: 5, PageID: 9, AuxPage: 10, Key: []byte("sep")},
			{LSN: 10, Type: RecordCheckpoint, PageID: 3, AuxPage: 16, CkptLSN: 6, Value: []byte{0, 1, 2, 0xff}},
		}, frame)
		if err != nil {
			t.Fatal(err)
		}
		if len(groups) != 1 {
			t.Fatalf("sealed %d groups, want 1", len(groups))
		}
		g := groups[0]
		if got := hex.EncodeToString(g.Data); got != golden {
			t.Fatalf("envelope changed:\n got %s\nwant %s", got, golden)
		}
		if g.First != 7 || g.Last != 10 || g.Count != 4 || g.Epoch != 3 {
			t.Fatalf("group = %d..%d count %d epoch %d, want 7..10 count 4 epoch 3", g.First, g.Last, g.Count, g.Epoch)
		}
	}
}

// appendNext persists recs at the writer's next LSNs the way the group
// committer does — SealAssigned, then one AppendSealed per group — and
// returns the last LSN.
func appendNext(w *Writer, recs ...*Record) (LSN, error) {
	next := w.NextLSN()
	for i, r := range recs {
		r.LSN = next + LSN(i)
	}
	if err := appendAssigned(w, recs...); err != nil {
		return 0, err
	}
	return next + LSN(len(recs)) - 1, nil
}

// appendAssigned persists records whose LSNs are set: SealAssigned, then one
// AppendSealed per group.
func appendAssigned(w *Writer, recs ...*Record) error {
	groups, err := w.SealAssigned(nil, recs, nil)
	for _, g := range groups {
		if err == nil {
			err = w.AppendSealed(g)
		}
	}
	return err
}

func TestGroupCommitterAssignsSequentialLSNs(t *testing.T) {
	st := storage.Open(nil)
	w := NewWriter(st)
	c := NewGroupCommitter(w, GroupCommitterOptions{})
	defer c.Stop()
	for i := 1; i <= 5; i++ {
		lsn, err := c.Log(&Record{Type: RecordPut, Key: []byte{byte(i)}})
		if err != nil {
			t.Fatal(err)
		}
		if lsn != LSN(i) {
			t.Fatalf("lsn = %d, want %d", lsn, i)
		}
	}
	if w.NextLSN() != 6 {
		t.Fatalf("writer NextLSN = %d, want 6", w.NextLSN())
	}
}

func TestReaderTailsWriter(t *testing.T) {
	st := storage.Open(nil)
	w := NewWriter(st)
	r := NewReader(st)

	if _, err := appendNext(w, &Record{Type: RecordPut, PageID: 1, Key: []byte("a"), Value: []byte("1")}); err != nil {
		t.Fatal(err)
	}
	recs, err := r.Poll()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].LSN != 1 || string(recs[0].Key) != "a" {
		t.Fatalf("poll 1 = %+v", recs)
	}

	if _, err := appendNext(w,
		&Record{Type: RecordSplit, PageID: 2, AuxPage: 3},
		&Record{Type: RecordNewPage, PageID: 3},
		&Record{Type: RecordCheckpoint, CkptLSN: 3},
	); err != nil {
		t.Fatal(err)
	}
	recs, err = r.Poll()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 {
		t.Fatalf("poll 2 = %d records, want 3", len(recs))
	}
	if recs[0].LSN != 2 || recs[1].LSN != 3 || recs[2].LSN != 4 {
		t.Fatalf("batch LSNs = %d,%d,%d", recs[0].LSN, recs[1].LSN, recs[2].LSN)
	}
	// Polling again yields nothing.
	recs, _ = r.Poll()
	if len(recs) != 0 {
		t.Fatalf("empty poll returned %d records", len(recs))
	}
}

func TestConcurrentWritersProduceDistinctOrderedLSNs(t *testing.T) {
	st := storage.Open(nil)
	c := NewGroupCommitter(NewWriter(st), GroupCommitterOptions{})
	defer c.Stop()
	var wg sync.WaitGroup
	const workers, per = 8, 100
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < per; j++ {
				if _, err := c.Log(&Record{Type: RecordPut, Key: []byte("k")}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()

	r := NewReader(st)
	recs, err := r.Poll()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != workers*per {
		t.Fatalf("records = %d, want %d", len(recs), workers*per)
	}
	for i, rec := range recs {
		if rec.LSN != LSN(i+1) {
			t.Fatalf("record %d has LSN %d: storage order must equal LSN order", i, rec.LSN)
		}
	}
}

func TestMultipleIndependentReaders(t *testing.T) {
	st := storage.Open(nil)
	w := NewWriter(st)
	r1, r2 := NewReader(st), NewReader(st)
	for i := 0; i < 10; i++ {
		if _, err := appendNext(w, &Record{Type: RecordPut, Key: []byte{byte(i)}}); err != nil {
			t.Fatal(err)
		}
	}
	a, _ := r1.Poll()
	b, _ := r2.Poll()
	if len(a) != 10 || len(b) != 10 {
		t.Fatalf("readers saw %d and %d records, want 10 each", len(a), len(b))
	}
}

func TestAppendAssignedRejectsStaleLSN(t *testing.T) {
	st := storage.Open(nil)
	w := NewWriter(st)
	if _, err := appendNext(w, &Record{Type: RecordPut}); err != nil {
		t.Fatal(err)
	}
	// LSN 1 is already consumed; re-appending it must fail.
	if err := appendAssigned(w, &Record{Type: RecordPut, LSN: 1}); err == nil {
		t.Fatal("stale assigned LSN accepted")
	}
	if err := appendAssigned(w); err != nil {
		t.Fatalf("empty assigned batch: %v", err)
	}
}

func TestAppendAssignedSplitsOversizedBatches(t *testing.T) {
	st := storage.Open(&storage.Options{ExtentSize: 256})
	w := NewWriter(st)
	recs := make([]*Record, 16)
	for i := range recs {
		recs[i] = &Record{Type: RecordPut, LSN: LSN(i + 1), Key: bytes.Repeat([]byte("k"), 40)}
	}
	if err := appendAssigned(w, recs...); err != nil {
		t.Fatal(err)
	}
	got, err := NewReader(st).Poll()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 16 {
		t.Fatalf("records = %d", len(got))
	}
	for i, r := range got {
		if r.LSN != LSN(i+1) {
			t.Fatalf("record %d LSN = %d", i, r.LSN)
		}
	}
}

// TestTrimmedPrefixIsAGapAtOnce covers both readers of a trimmed WAL: one
// whose cursor is short of a trimmed extent fails its first poll with a
// *GapError (no waiting for the hole to fill), and one that had read that
// extent to its end goes on tailing.
func TestTrimmedPrefixIsAGapAtOnce(t *testing.T) {
	st := storage.Open(&storage.Options{ExtentSize: 256})
	w := NewWriter(st)
	appendOne := func() {
		t.Helper()
		if _, err := appendNext(w, &Record{Type: RecordPut, Key: bytes.Repeat([]byte("k"), 40)}); err != nil {
			t.Fatal(err)
		}
	}
	behind, read := NewReader(st), NewReader(st)
	// read polls the first extent to its end while it is the active one; the
	// append after its last poll opens the next extent.
	appendOne()
	first := st.TailCursor(storage.StreamWAL).Extent
	for st.TailCursor(storage.StreamWAL).Extent == first {
		if _, err := read.Poll(); err != nil {
			t.Fatal(err)
		}
		appendOne()
	}
	if dropped := st.DropBefore(storage.StreamWAL, first+1, 0, 0); len(dropped) != 1 {
		t.Fatalf("trim dropped %v, want extent %d", dropped, first)
	}

	var gap *GapError
	if recs, err := behind.Poll(); !errors.As(err, &gap) || gap.Expected != 1 || len(recs) != 0 {
		t.Fatalf("first poll behind the trim = %d records, %v; want a gap at lsn 1", len(recs), err)
	}
	recs, err := read.Poll()
	if err != nil || len(recs) != 1 || recs[0].LSN != read.LastLSN() {
		t.Fatalf("poll after reading the trimmed extent to its end = %d records, %v; want the one after it", len(recs), err)
	}
}

// TestNewReaderAtHead pins where the head reader's sequence starts: at LSN 1
// on a log never trimmed, and past the trim's horizon on a trimmed one, at the
// epoch the trim was declared under.
func TestNewReaderAtHead(t *testing.T) {
	st := storage.Open(&storage.Options{ExtentSize: 256})
	w := NewWriter(st)
	appendOne := func() {
		t.Helper()
		if _, err := appendNext(w, &Record{Type: RecordPut, Key: bytes.Repeat([]byte("k"), 40)}); err != nil {
			t.Fatal(err)
		}
	}
	appendOne()
	first := st.TailCursor(storage.StreamWAL).Extent
	for st.TailCursor(storage.StreamWAL).Extent == first {
		appendOne()
	}
	if got := lsnsOf(mustPoll(t, NewReaderAtHead(st))); len(got) != int(w.NextLSN()-1) || got[0] != 1 {
		t.Fatalf("head reader of an untrimmed log delivered %v, want every LSN from 1", got)
	}

	// Trim the first extent, declaring the horizon its last record.
	horizon := w.NextLSN() - 2
	if dropped := st.DropBefore(storage.StreamWAL, first+1, uint64(horizon), w.Epoch()); len(dropped) != 1 {
		t.Fatalf("trim dropped %v, want extent %d", dropped, first)
	}
	r := NewReaderAtHead(st)
	if r.LastLSN() != horizon {
		t.Fatalf("head reader based at %d, want the horizon %d", r.LastLSN(), horizon)
	}
	if got := lsnsOf(mustPoll(t, r)); len(got) != 1 || got[0] != horizon+1 {
		t.Fatalf("head reader of a trimmed log delivered %v, want [%d]", got, horizon+1)
	}
}

func mustPoll(t *testing.T, r *Reader) []*Record {
	t.Helper()
	recs, err := r.Poll()
	if err != nil {
		t.Fatal(err)
	}
	return recs
}

func TestRecordTypeStrings(t *testing.T) {
	for _, rt := range []RecordType{RecordPut, RecordDelete, RecordSplit, RecordNewPage,
		RecordNewRoot, RecordCheckpoint, RecordNewTree, RecordOwnerAssign, RecordType(99)} {
		if rt.String() == "" {
			t.Fatalf("empty string for %d", rt)
		}
	}
}
