package storage

import (
	"errors"
	"fmt"
	"testing"
)

func TestScanFromZero(t *testing.T) {
	s := Open(&Options{ExtentSize: 32})
	want := []string{"aaaa", "bbbb", "cccc", "dddd", "eeee", "ffff", "gggg", "hhhh", "iiii", "jjjj"}
	for i, w := range want {
		if _, err := s.Append(StreamWAL, uint64(i), []byte(w)); err != nil {
			t.Fatal(err)
		}
	}
	entries, _, err := s.Scan(StreamWAL, Cursor{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != len(want) {
		t.Fatalf("scanned %d entries, want %d", len(entries), len(want))
	}
	for i, e := range entries {
		if string(e.Data) != want[i] {
			t.Fatalf("entry %d = %q, want %q", i, e.Data, want[i])
		}
		if e.Tag != uint64(i) {
			t.Fatalf("entry %d tag = %d, want %d", i, e.Tag, i)
		}
	}
}

func TestScanResumesFromCursor(t *testing.T) {
	s := Open(&Options{ExtentSize: 32})
	for i := 0; i < 10; i++ {
		if _, err := s.Append(StreamWAL, uint64(i), []byte(fmt.Sprintf("rec%04d", i))); err != nil {
			t.Fatal(err)
		}
	}
	first, cur, err := s.Scan(StreamWAL, Cursor{}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(first) != 4 {
		t.Fatalf("batch = %d, want 4", len(first))
	}
	rest, cur2, err := s.Scan(StreamWAL, cur, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rest) != 6 {
		t.Fatalf("rest = %d, want 6", len(rest))
	}
	if string(rest[0].Data) != "rec0004" {
		t.Fatalf("resume record = %q, want rec0004", rest[0].Data)
	}
	// Tailing an empty tail returns nothing and an unchanged logical position.
	none, _, err := s.Scan(StreamWAL, cur2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(none) != 0 {
		t.Fatalf("tail scan = %d entries, want 0", len(none))
	}
	// New appends become visible to the cursor.
	if _, err := s.Append(StreamWAL, 99, []byte("new-rec")); err != nil {
		t.Fatal(err)
	}
	more, _, err := s.Scan(StreamWAL, cur2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(more) != 1 || string(more[0].Data) != "new-rec" {
		t.Fatalf("tail after append = %v", more)
	}
}

func TestScanSkipsReclaimedExtents(t *testing.T) {
	s := Open(&Options{ExtentSize: 16})
	var locs []Loc
	for i := 0; i < 6; i++ {
		loc, _ := s.Append(StreamWAL, uint64(i), []byte("01234567")) // 2 per extent
		locs = append(locs, loc)
	}
	// Reclaim the first extent (no valid data relocated — invalidate first).
	s.Invalidate(locs[0])
	s.Invalidate(locs[1])
	if _, err := s.Reclaim(StreamWAL, locs[0].Extent, nil); err != nil {
		t.Fatal(err)
	}
	entries, _, err := s.Scan(StreamWAL, Cursor{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 4 {
		t.Fatalf("scan after reclaim = %d entries, want 4", len(entries))
	}
	if entries[0].Tag != 2 {
		t.Fatalf("first surviving tag = %d, want 2", entries[0].Tag)
	}
}

func TestTailCursor(t *testing.T) {
	s := Open(&Options{ExtentSize: 32})
	if cur := s.TailCursor(StreamWAL); cur != (Cursor{}) {
		t.Fatalf("empty stream tail = %+v", cur)
	}
	for i := 0; i < 5; i++ {
		if _, err := s.Append(StreamWAL, uint64(i), []byte("0123456789")); err != nil {
			t.Fatal(err)
		}
	}
	cur := s.TailCursor(StreamWAL)
	// Nothing behind the tail is visible from it.
	entries, _, err := s.Scan(StreamWAL, cur, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Fatalf("tail scan = %d entries, want 0", len(entries))
	}
	// Appends after the cursor are visible.
	if _, err := s.Append(StreamWAL, 9, []byte("after-tail")); err != nil {
		t.Fatal(err)
	}
	entries, _, err = s.Scan(StreamWAL, cur, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || string(entries[0].Data) != "after-tail" {
		t.Fatalf("tail scan after append = %v", entries)
	}
}

func TestDropBefore(t *testing.T) {
	s := Open(&Options{ExtentSize: 16})
	var lastLoc Loc
	for i := 0; i < 8; i++ { // 2 records per extent
		loc, err := s.Append(StreamWAL, uint64(i), []byte("01234567"))
		if err != nil {
			t.Fatal(err)
		}
		lastLoc = loc
	}
	if head, h, _ := s.Head(StreamWAL); head != (Cursor{}) || h != 0 {
		t.Fatalf("untrimmed head = %+v, horizon %d", head, h)
	}
	dropped := s.DropBefore(StreamWAL, lastLoc.Extent, 7, 3)
	if len(dropped) == 0 {
		t.Fatal("nothing dropped")
	}
	// The head is where a scan of everything retained starts, and the trim's
	// horizon and its epoch ride with it; a trim that drops nothing moves
	// neither.
	head, h, e := s.Head(StreamWAL)
	if entries, _, err := s.Scan(StreamWAL, head, 0); err != nil || h != 7 || e != 3 || len(entries) == 0 || entries[0].Loc.Extent != dropped[len(dropped)-1]+1 {
		t.Fatalf("scan from head %+v (horizon %d, epoch %d): %d entries, %v", head, h, e, len(entries), err)
	}
	if s.DropBefore(StreamWAL, lastLoc.Extent, 9, 4); func() bool { _, h, e := s.Head(StreamWAL); return h != 7 || e != 3 }() {
		t.Fatal("a trim that dropped nothing moved the horizon")
	}
	for _, id := range dropped {
		if id >= lastLoc.Extent {
			t.Fatalf("dropped extent %d >= bound %d", id, lastLoc.Extent)
		}
	}
	// Records at/after the bound survive.
	if _, err := s.Read(lastLoc); err != nil {
		t.Fatalf("read after DropBefore: %v", err)
	}
	// A trim is not TTL expiry.
	if n := s.Stats().ExtentsExpired; n != 0 {
		t.Fatalf("ExtentsExpired = %d after DropBefore, want 0", n)
	}
	// A scan from before the end of a dropped extent has lost records; one
	// from the end of the newest dropped extent has not.
	last := dropped[len(dropped)-1]
	for _, c := range []struct {
		cur  Cursor
		hole bool
	}{{Cursor{}, true}, {Cursor{Extent: last, Index: 1}, true}, {Cursor{Extent: last, Index: 2}, false}, {Cursor{Extent: last + 1}, false}} {
		entries, next, err := s.Scan(StreamWAL, c.cur, 0)
		if c.hole != errors.Is(err, ErrTrimmed) || (c.hole && (len(entries) != 0 || next != c.cur)) {
			t.Fatalf("scan from %+v = %d entries, next %+v, %v; want a trimmed hole: %v", c.cur, len(entries), next, err, c.hole)
		}
	}
	// The active extent is never dropped even below the bound.
	s2 := Open(&Options{ExtentSize: 1 << 16})
	if _, err := s2.Append(StreamWAL, 0, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if got := s2.DropBefore(StreamWAL, 99, 1, 0); len(got) != 0 {
		t.Fatalf("active extent dropped: %v", got)
	}
}
