package storage

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"time"
)

// TestReadBatchOrderAndCoalescing writes records across several extents,
// reads them back in scrambled order, and checks that results follow input
// order while round trips follow extent count.
func TestReadBatchOrderAndCoalescing(t *testing.T) {
	s := Open(&Options{ExtentSize: 64})
	var locs []Loc
	var want [][]byte
	for i := 0; i < 12; i++ {
		data := []byte(fmt.Sprintf("record-%02d-%s", i, string(make([]byte, i))))
		loc, err := s.Append(StreamBase, uint64(i), data)
		if err != nil {
			t.Fatal(err)
		}
		locs = append(locs, loc)
		want = append(want, data)
	}

	// Scramble: interleave front and back so same-extent records are not
	// adjacent in the request.
	perm := make([]int, 0, len(locs))
	for i, j := 0, len(locs)-1; i <= j; i, j = i+1, j-1 {
		perm = append(perm, i)
		if i != j {
			perm = append(perm, j)
		}
	}
	req := make([]Loc, len(perm))
	for i, p := range perm {
		req[i] = locs[p]
	}

	before := s.Stats()
	got, err := s.ReadBatch(req)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range perm {
		if !bytes.Equal(got[i], want[p]) {
			t.Fatalf("result %d = %q, want %q", i, got[i], want[p])
		}
	}
	after := s.Stats()

	extents := map[ExtentID]bool{}
	for _, l := range locs {
		extents[l.Extent] = true
	}
	if rt := after.BatchRoundTrips - before.BatchRoundTrips; rt != int64(len(extents)) {
		t.Fatalf("round trips = %d, want %d (one per extent)", rt, len(extents))
	}
	// ReadOps stays per-record: it is the logical read-amplification measure.
	if ro := after.ReadOps - before.ReadOps; ro != int64(len(req)) {
		t.Fatalf("read ops = %d, want %d (one per record)", ro, len(req))
	}
	if after.BatchReads-before.BatchReads != 1 {
		t.Fatalf("batch reads = %d, want 1", after.BatchReads-before.BatchReads)
	}
}

// TestReadBatchParallelPath forces the goroutine-per-group path (non-zero
// read latency, multiple extents) and checks results and errors still land
// correctly.
func TestReadBatchParallelPath(t *testing.T) {
	s := Open(&Options{ExtentSize: 32, ReadLatency: 100 * time.Microsecond})
	var locs []Loc
	for i := 0; i < 6; i++ {
		loc, err := s.Append(StreamBase, uint64(i), []byte(fmt.Sprintf("par-%d-0123456789", i)))
		if err != nil {
			t.Fatal(err)
		}
		locs = append(locs, loc)
	}
	got, err := s.ReadBatch(locs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range locs {
		if want := fmt.Sprintf("par-%d-0123456789", i); string(got[i]) != want {
			t.Fatalf("result %d = %q, want %q", i, got[i], want)
		}
	}

	// A bogus loc in any group fails the whole batch.
	bad := locs[0]
	bad.Offset = 1 << 20
	if _, err := s.ReadBatch([]Loc{locs[1], bad, locs[2]}); err == nil {
		t.Fatal("expected error for out-of-range loc")
	}
}

// TestReadBatchEmptyAndSingle covers the trivial shapes.
func TestReadBatchEmptyAndSingle(t *testing.T) {
	s := Open(&Options{ExtentSize: 1 << 16})
	if out, err := s.ReadBatch(nil); err != nil || out != nil {
		t.Fatalf("empty batch = %v, %v", out, err)
	}
	loc, err := s.Append(StreamDelta, 1, []byte("solo"))
	if err != nil {
		t.Fatal(err)
	}
	out, err := s.ReadBatch([]Loc{loc})
	if err != nil || string(out[0]) != "solo" {
		t.Fatalf("single batch = %q, %v", out, err)
	}
}

// TestReadBatchEachFailsOnlyTheReclaimedGroup: a hop-wide batch whose
// locations were snapshotted before one of its extents was reclaimed loses
// only the records of that extent — on the sequential and on the
// goroutine-per-group path — while ReadBatch still fails as a whole with
// the same error.
func TestReadBatchEachFailsOnlyTheReclaimedGroup(t *testing.T) {
	for _, latency := range []time.Duration{0, 100 * time.Microsecond} {
		s := Open(&Options{ExtentSize: 64, ReadLatency: latency})
		var locs []Loc
		var want [][]byte
		for i := 0; i < 12; i++ {
			data := []byte(fmt.Sprintf("hop-record-%02d-padding", i))
			loc, err := s.Append(StreamBase, uint64(i), data)
			if err != nil {
				t.Fatal(err)
			}
			locs, want = append(locs, loc), append(want, data)
		}
		victim := locs[5].Extent
		if _, err := s.Reclaim(StreamBase, victim, nil); err != nil {
			t.Fatal(err)
		}
		bufs, errs := s.ReadBatchEach(locs, nil)
		if len(bufs) != len(locs) || len(errs) != len(locs) {
			t.Fatalf("latency %v: %d bufs, %d errs for %d locs", latency, len(bufs), len(errs), len(locs))
		}
		lost := 0
		for i, l := range locs {
			switch {
			case l.Extent == victim:
				lost++
				if !errors.Is(errs[i], ErrReclaimed) || bufs[i] != nil {
					t.Fatalf("latency %v: loc %d in the reclaimed extent = %q, %v", latency, i, bufs[i], errs[i])
				}
			case errs[i] != nil || !bytes.Equal(bufs[i], want[i]):
				t.Fatalf("latency %v: loc %d outside the reclaimed extent = %q, %v", latency, i, bufs[i], errs[i])
			}
		}
		if lost == 0 || lost == len(locs) {
			t.Fatalf("fixture: %d of %d records in the reclaimed extent", lost, len(locs))
		}
		if _, err := s.ReadBatch(locs); !errors.Is(err, ErrReclaimed) {
			t.Fatalf("latency %v: ReadBatch over a reclaimed extent = %v, want ErrReclaimed", latency, err)
		}
		// No failure, no error slice.
		if _, errs := s.ReadBatchEach(locs[:1], nil); errs != nil {
			t.Fatalf("latency %v: clean batch reported %v", latency, errs)
		}
	}
}

// TestGroupLocsKeepsFirstAppearanceOrder checks the grouping contract at
// hop size: groups in order of first appearance, input order within each.
func TestGroupLocsKeepsFirstAppearanceOrder(t *testing.T) {
	var locs []Loc
	for i := 0; i < 400; i++ {
		locs = append(locs, Loc{Stream: StreamID(i % 2), Extent: ExtentID((i * 7) % 13), Offset: uint32(i)})
	}
	groups := new(batchScratch).group(locs)
	if len(groups) != 26 {
		t.Fatalf("%d groups, want 26", len(groups))
	}
	seen, next := map[[2]uint64]bool{}, 0
	for _, l := range locs { // replay first appearances
		k := [2]uint64{uint64(l.Stream), uint64(l.Extent)}
		if !seen[k] {
			seen[k] = true
			if g := groups[next]; g.stream != l.Stream || g.extent != l.Extent {
				t.Fatalf("group %d = (%v, %d), want (%v, %d)", next, g.stream, g.extent, l.Stream, l.Extent)
			}
			next++
		}
	}
	total := 0
	for _, g := range groups {
		total += len(g.idx)
		for j, i := range g.idx {
			if locs[i].Stream != g.stream || locs[i].Extent != g.extent || (j > 0 && g.idx[j-1] >= i) {
				t.Fatalf("group (%v, %d) idx %v misplaces loc %d", g.stream, g.extent, g.idx, i)
			}
		}
	}
	if total != len(locs) {
		t.Fatalf("groups cover %d locs, want %d", total, len(locs))
	}
}
