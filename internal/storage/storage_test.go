package storage

import (
	"bytes"
	"errors"
	"runtime"

	"bg3/internal/metrics"
	"fmt"
	"slices"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestAppendRead(t *testing.T) {
	s := Open(nil)
	loc, err := s.Append(StreamBase, 1, []byte("hello"))
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.Read(loc)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "hello" {
		t.Fatalf("read = %q, want hello", got)
	}
}

// TestReadIsAView pins the read contract: Read, ReadBatch and ReadBatchEach
// return a record where it lies in its extent, capacity-clipped, so an append
// to a result reallocates and leaves the store intact; and a result stays the
// record it was after its extent is reclaimed, condemned and released, dropped
// by TTL, and after the store closes.
func TestReadIsAView(t *testing.T) {
	now := time.Unix(1000, 0)
	s := Open(&Options{ExtentSize: 32, Now: func() time.Time { return now }})
	rec := func(i int) []byte { return []byte(fmt.Sprintf("record-%02d", i)) } // 9 bytes: 3 per extent
	var locs []Loc
	for i := 0; i < 12; i++ {
		loc, err := s.Append(StreamBase, uint64(i), rec(i))
		if err != nil {
			t.Fatal(err)
		}
		locs = append(locs, loc)
	}
	if locs[0].Extent != locs[1].Extent {
		t.Fatalf("fixture: records 0 and 1 in extents %d and %d", locs[0].Extent, locs[1].Extent)
	}
	one, err := s.Read(locs[0])
	if err != nil {
		t.Fatal(err)
	}
	batch, err := s.ReadBatch(locs)
	if err != nil {
		t.Fatal(err)
	}
	each, errs := s.ReadBatchEach(locs)
	if errs != nil {
		t.Fatal(errs)
	}
	if &one[0] != &batch[0][0] || &one[0] != &each[0][0] {
		t.Fatal("three reads of one record returned three buffers: reads copy")
	}
	// Every read result is exactly its record; appending to it must not
	// reach the record beside it (record 1 follows record 0 in its extent).
	views := append([][]byte{one}, append(batch, each...)...)
	for i, v := range views {
		if cap(v) != len(v) {
			t.Fatalf("read result %d has cap %d, len %d: an append would write into its extent", i, cap(v), len(v))
		}
		_ = append(v, 'X')
	}
	for i, loc := range locs {
		if got, _ := s.Read(loc); !bytes.Equal(got, rec(i)) {
			t.Fatalf("after appends to read results, record %d reads %q, want %q", i, got, rec(i))
		}
	}
	intact := func(when string) {
		t.Helper()
		runtime.GC()
		for i, v := range batch {
			if !bytes.Equal(v, rec(i)) {
				t.Fatalf("%s: a view of record %d reads %q, want %q", when, i, v, rec(i))
			}
		}
	}
	gone := func(when string, loc Loc) {
		t.Helper()
		if _, err := s.Read(loc); !errors.Is(err, ErrReclaimed) {
			t.Fatalf("%s: the extent still reads (%v): nothing was taken from under the view", when, err)
		}
		intact(when)
	}

	// A store with no log releases a reclaimed extent at once.
	if _, err := s.Reclaim(StreamBase, locs[0].Extent, func(uint64, Loc, Loc) bool { return true }); err != nil {
		t.Fatal(err)
	}
	gone("after Reclaim", locs[0])

	// TTL: the oldest extent left expires.
	now = now.Add(time.Hour)
	if _, err := s.Append(StreamBase, 99, rec(99)); err != nil {
		t.Fatal(err)
	}
	if dropped := s.DropExpired(StreamBase, now.Add(-time.Minute)); len(dropped) == 0 {
		t.Fatal("fixture: nothing expired")
	}
	gone("after DropExpired", locs[3])

	// Once the log is written, a reclaimed extent is condemned (still
	// readable) until a checkpoint stamps it and no follower holds it.
	logged := Open(&Options{ExtentSize: 32})
	if _, err := logged.Append(StreamWAL, 0, []byte("log")); err != nil {
		t.Fatal(err)
	}
	var llocs []Loc
	for i := 0; i < 4; i++ {
		loc, err := logged.Append(StreamBase, uint64(i), rec(i))
		if err != nil {
			t.Fatal(err)
		}
		llocs = append(llocs, loc)
	}
	if batch, err = logged.ReadBatch(llocs); err != nil {
		t.Fatal(err)
	}
	if _, err := logged.Reclaim(StreamBase, llocs[0].Extent, func(uint64, Loc, Loc) bool { return true }); err != nil {
		t.Fatal(err)
	}
	if _, err := logged.Read(llocs[0]); err != nil {
		t.Fatalf("a condemned extent no longer reads: %v", err)
	}
	logged.Stamp(logged.CondemnMark(), 1)
	s = logged
	gone("after condemn and release", llocs[0])

	logged.Close()
	intact("after Close")
}

func TestStreamsAreIndependent(t *testing.T) {
	s := Open(nil)
	l1, _ := s.Append(StreamBase, 1, []byte("base"))
	l2, _ := s.Append(StreamDelta, 1, []byte("delta"))
	if l1.Stream == l2.Stream {
		t.Fatal("streams collided")
	}
	b, _ := s.Read(l1)
	d, _ := s.Read(l2)
	if string(b) != "base" || string(d) != "delta" {
		t.Fatalf("cross-stream corruption: %q %q", b, d)
	}
}

func TestExtentRollover(t *testing.T) {
	s := Open(&Options{ExtentSize: 32})
	var locs []Loc
	for i := 0; i < 10; i++ {
		loc, err := s.Append(StreamBase, uint64(i), []byte("0123456789")) // 10 bytes, 3 per extent
		if err != nil {
			t.Fatal(err)
		}
		locs = append(locs, loc)
	}
	if locs[0].Extent == locs[9].Extent {
		t.Fatal("expected rollover across extents")
	}
	for _, loc := range locs {
		if _, err := s.Read(loc); err != nil {
			t.Fatalf("read %v: %v", loc, err)
		}
	}
	u := s.Usage(StreamBase)
	if len(u) < 3 {
		t.Fatalf("extent count = %d, want >= 3", len(u))
	}
	for _, e := range u[:len(u)-1] {
		if !e.Sealed {
			t.Fatalf("non-final extent %d not sealed", e.Extent)
		}
	}
}

func TestAppendTooLarge(t *testing.T) {
	s := Open(&Options{ExtentSize: 8})
	if _, err := s.Append(StreamBase, 0, make([]byte, 9)); err == nil {
		t.Fatal("oversized append should fail")
	}
}

func TestAppendAfterClose(t *testing.T) {
	s := Open(nil)
	loc, _ := s.Append(StreamBase, 0, []byte("x"))
	s.Close()
	if _, err := s.Append(StreamBase, 0, []byte("y")); err != ErrClosed {
		t.Fatalf("append after close = %v, want ErrClosed", err)
	}
	// Reads still work for draining readers.
	if _, err := s.Read(loc); err != nil {
		t.Fatalf("read after close: %v", err)
	}
}

func TestInvalidateTracking(t *testing.T) {
	s := Open(&Options{ExtentSize: 1 << 16})
	var locs []Loc
	for i := 0; i < 4; i++ {
		loc, _ := s.Append(StreamBase, uint64(i), []byte("data"))
		locs = append(locs, loc)
	}
	s.Invalidate(locs[0])
	s.Invalidate(locs[1])
	s.Invalidate(locs[1]) // double-invalidate is a no-op

	u := s.Usage(StreamBase)
	if len(u) != 1 {
		t.Fatalf("extents = %d, want 1", len(u))
	}
	if u[0].ValidRecords != 2 || u[0].InvalidRecords != 2 {
		t.Fatalf("valid/invalid = %d/%d, want 2/2", u[0].ValidRecords, u[0].InvalidRecords)
	}
	if got := u[0].FragmentationRate(); got != 0.5 {
		t.Fatalf("fragmentation = %f, want 0.5", got)
	}
	// Invalidated records remain readable until reclamation (RO nodes
	// depend on this).
	if _, err := s.Read(locs[0]); err != nil {
		t.Fatalf("read invalidated record: %v", err)
	}
}

func TestReclaimMovesOnlyValid(t *testing.T) {
	s := Open(&Options{ExtentSize: 64})
	var locs []Loc
	for i := 0; i < 8; i++ {
		loc, _ := s.Append(StreamBase, uint64(i), bytes.Repeat([]byte{byte(i)}, 8))
		locs = append(locs, loc)
	}
	ext := locs[0].Extent
	// Invalidate odd records of the first extent.
	var expectValid []uint64
	for i, loc := range locs {
		if loc.Extent != ext {
			continue
		}
		if i%2 == 1 {
			s.Invalidate(loc)
		} else {
			expectValid = append(expectValid, uint64(i))
		}
	}
	moved := map[uint64]Loc{}
	n, err := s.Reclaim(StreamBase, ext, func(tag uint64, old, new Loc) bool {
		moved[tag] = new
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(moved) != len(expectValid) {
		t.Fatalf("moved %d records, want %d", len(moved), len(expectValid))
	}
	if n != int64(8*len(expectValid)) {
		t.Fatalf("moved bytes = %d, want %d", n, 8*len(expectValid))
	}
	// Old extent gone.
	if _, err := s.Read(locs[0]); err != ErrReclaimed {
		t.Fatalf("read from reclaimed extent = %v, want ErrReclaimed", err)
	}
	// New copies hold the original data.
	for tag, loc := range moved {
		got, err := s.Read(loc)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, bytes.Repeat([]byte{byte(tag)}, 8)) {
			t.Fatalf("tag %d: relocated data mismatch", tag)
		}
	}
}

func TestReclaimRejectedRelocation(t *testing.T) {
	s := Open(&Options{ExtentSize: 64})
	loc, _ := s.Append(StreamBase, 7, []byte("payload!"))
	_, err := s.Reclaim(StreamBase, loc.Extent, func(tag uint64, old, new Loc) bool {
		return false // owner says the record went stale
	})
	if err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.GCBytesMoved != 0 {
		t.Fatalf("GCBytesMoved = %d, want 0 when relocation rejected", st.GCBytesMoved)
	}
	// The fresh copy must be marked invalid so a later reclaim can drop it.
	u := s.Usage(StreamBase)
	var valid int
	for _, e := range u {
		valid += e.ValidRecords
	}
	if valid != 0 {
		t.Fatalf("valid records = %d, want 0", valid)
	}
}

func TestReclaimUnknownExtent(t *testing.T) {
	s := Open(nil)
	if _, err := s.Reclaim(StreamBase, 42, nil); err != ErrReclaimed {
		t.Fatalf("err = %v, want ErrReclaimed", err)
	}
}

func TestDropExpired(t *testing.T) {
	now := time.Unix(1000, 0)
	clock := func() time.Time { return now }
	s := Open(&Options{ExtentSize: 16, Now: clock})

	// Fill two extents at t=1000.
	for i := 0; i < 4; i++ {
		if _, err := s.Append(StreamBase, uint64(i), []byte("12345678")); err != nil {
			t.Fatal(err)
		}
	}
	// Advance and write into a third.
	now = time.Unix(2000, 0)
	if _, err := s.Append(StreamBase, 9, []byte("12345678")); err != nil {
		t.Fatal(err)
	}

	dropped := s.DropExpired(StreamBase, time.Unix(1500, 0))
	if len(dropped) == 0 {
		t.Fatal("expected extents to expire")
	}
	st := s.Stats()
	if st.ExtentsExpired != int64(len(dropped)) {
		t.Fatalf("ExtentsExpired = %d, want %d", st.ExtentsExpired, len(dropped))
	}
	// Active extent never dropped even if old.
	dropped2 := s.DropExpired(StreamBase, time.Unix(3000, 0))
	u := s.Usage(StreamBase)
	if len(u) != 1 {
		t.Fatalf("extents remaining = %d, want just the active one (dropped2=%v)", len(u), dropped2)
	}
	if u[0].Sealed {
		t.Fatal("remaining extent should be the unsealed active one")
	}
}

func TestUpdateGradientOrdering(t *testing.T) {
	now := time.Unix(0, 0)
	clock := func() time.Time { return now }
	s := Open(&Options{ExtentSize: 1 << 16, Now: clock})

	var hotLocs, coldLocs []Loc
	for i := 0; i < 10; i++ {
		loc, _ := s.Append(StreamBase, uint64(i), []byte("hot-data"))
		hotLocs = append(hotLocs, loc)
	}
	// Hot extent: invalidations arrive quickly.
	now = now.Add(time.Second)
	for _, l := range hotLocs[:5] {
		s.Invalidate(l)
	}
	u := s.Usage(StreamBase)
	if len(u) != 1 {
		t.Fatalf("extents = %d, want 1", len(u))
	}
	if u[0].UpdateGradient <= 0 {
		t.Fatalf("hot extent gradient = %f, want > 0", u[0].UpdateGradient)
	}
	_ = coldLocs
}

func TestStatsAccounting(t *testing.T) {
	s := Open(&Options{ExtentSize: 1 << 16})
	loc, _ := s.Append(StreamBase, 1, make([]byte, 100))
	if _, err := s.Read(loc); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.WriteOps != 1 || st.BytesWritten != 100 {
		t.Fatalf("write stats = %d ops %d bytes", st.WriteOps, st.BytesWritten)
	}
	if st.ReadOps != 1 || st.BytesRead != 100 {
		t.Fatalf("read stats = %d ops %d bytes", st.ReadOps, st.BytesRead)
	}
	if st.LiveBytes != 100 {
		t.Fatalf("LiveBytes = %d, want 100", st.LiveBytes)
	}
	s.ResetIOStats()
	st = s.Stats()
	if st.WriteOps != 0 || st.ReadOps != 0 {
		t.Fatal("ResetIOStats did not clear counters")
	}
	if st.LiveBytes != 100 {
		t.Fatal("ResetIOStats must not clear space accounting")
	}
}

func TestConcurrentAppendRead(t *testing.T) {
	s := Open(&Options{ExtentSize: 1 << 12})
	var wg sync.WaitGroup
	const workers, per = 8, 200
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				payload := []byte(fmt.Sprintf("w%d-i%d", w, i))
				loc, err := s.Append(StreamBase, uint64(w), payload)
				if err != nil {
					errs <- err
					return
				}
				got, err := s.Read(loc)
				if err != nil {
					errs <- err
					return
				}
				if !bytes.Equal(got, payload) {
					errs <- fmt.Errorf("w%d i%d: got %q want %q", w, i, got, payload)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.WriteOps != workers*per {
		t.Fatalf("WriteOps = %d, want %d", st.WriteOps, workers*per)
	}
}

// Property: any sequence of appends is readable back verbatim, and
// LiveBytes equals the sum of appended record sizes.
func TestPropertyAppendReadRoundTrip(t *testing.T) {
	f := func(payloads [][]byte) bool {
		s := Open(&Options{ExtentSize: 1 << 12})
		var total int64
		type pair struct {
			loc  Loc
			data []byte
		}
		var pairs []pair
		for i, p := range payloads {
			if len(p) > 1<<12 {
				p = p[:1<<12]
			}
			loc, err := s.Append(StreamBase, uint64(i), p)
			if err != nil {
				return false
			}
			pairs = append(pairs, pair{loc, p})
			total += int64(len(p))
		}
		for _, pr := range pairs {
			got, err := s.Read(pr.loc)
			if err != nil || !bytes.Equal(got, pr.data) {
				return false
			}
		}
		return s.Stats().LiveBytes == total
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: invalidating k distinct records yields fragmentation k/n.
func TestPropertyFragmentation(t *testing.T) {
	f := func(n uint8, k uint8) bool {
		total := int(n%32) + 1
		kill := int(k) % (total + 1)
		s := Open(&Options{ExtentSize: 1 << 16})
		var locs []Loc
		for i := 0; i < total; i++ {
			loc, _ := s.Append(StreamDelta, uint64(i), []byte("x"))
			locs = append(locs, loc)
		}
		for i := 0; i < kill; i++ {
			s.Invalidate(locs[i])
		}
		u := s.Usage(StreamDelta)
		if len(u) != 1 {
			return false
		}
		want := float64(kill) / float64(total)
		got := u[0].FragmentationRate()
		return got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestLatencyInjection(t *testing.T) {
	s := Open(&Options{WriteLatency: 5 * time.Millisecond, ReadLatency: 5 * time.Millisecond})
	start := time.Now()
	loc, _ := s.Append(StreamBase, 0, []byte("x"))
	if _, err := s.Read(loc); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 10*time.Millisecond {
		t.Fatalf("elapsed = %v, want >= 10ms with injected latency", elapsed)
	}
}

func TestLocString(t *testing.T) {
	l := Loc{Stream: StreamDelta, Extent: 3, Offset: 16, Length: 8}
	if got := l.String(); got != "delta/3@16+8" {
		t.Fatalf("String = %q", got)
	}
	if !(Loc{}).IsZero() || l.IsZero() {
		t.Fatal("IsZero misbehaves")
	}
}

// TestReleaseRule pins when a reclaimed extent's memory goes: at reclaim on
// a store without a log; otherwise it is condemned — readable, out of usage
// and space accounting, not reclaimable twice — until a checkpoint stamps it
// and every registered follower has applied that checkpoint. No clock is read.
func TestReleaseRule(t *testing.T) {
	open := func(logged bool) (*Store, []Loc) {
		s := Open(&Options{ExtentSize: 64})
		if logged {
			if _, err := s.Append(StreamWAL, 0, []byte("log")); err != nil {
				t.Fatal(err)
			}
		}
		var locs []Loc
		for i := 0; i < 33; i++ { // four sealed extents, a fifth active
			loc, _ := s.Append(StreamBase, uint64(i), bytes.Repeat([]byte{byte(i)}, 8))
			locs = append(locs, loc)
		}
		for _, loc := range locs[:24] { // the first three die: a reclaim moves nothing
			s.Invalidate(loc)
		}
		return s, locs
	}
	reclaim := func(t *testing.T, s *Store, ext ExtentID) {
		t.Helper()
		if _, err := s.Reclaim(StreamBase, ext, func(uint64, Loc, Loc) bool { return true }); err != nil {
			t.Fatal(err)
		}
	}
	readable := func(t *testing.T, s *Store, loc Loc, want bool) {
		t.Helper()
		_, err := s.Read(loc)
		if want && err != nil {
			t.Fatalf("condemned extent %d unreadable: %v", loc.Extent, err)
		}
		if !want && err != ErrReclaimed {
			t.Fatalf("read of released extent %d = %v, want ErrReclaimed", loc.Extent, err)
		}
	}

	t.Run("no log", func(t *testing.T) {
		s, locs := open(false)
		reclaim(t, s, locs[0].Extent)
		readable(t, s, locs[0], false)
	})

	t.Run("logged", func(t *testing.T) {
		s, locs := open(true)
		before := s.Stats()
		a, b, c := locs[0], locs[8], locs[16] // one record of each of three extents
		f := s.Follow()
		reclaim(t, s, a.Extent)
		mark := s.CondemnMark()
		reclaim(t, s, b.Extent) // condemned past the mark
		for _, loc := range []Loc{a, b} {
			readable(t, s, loc, true)
			for _, u := range s.Usage(StreamBase) {
				if u.Extent == loc.Extent {
					t.Fatalf("condemned extent %d still in usage", loc.Extent)
				}
			}
			if _, err := s.Reclaim(StreamBase, loc.Extent, nil); err != ErrReclaimed {
				t.Fatalf("second reclaim of %d = %v, want ErrReclaimed", loc.Extent, err)
			}
		}
		after := s.Stats()
		if after.TotalBytes != before.TotalBytes-128 || after.ExtentCount != before.ExtentCount-2 {
			t.Fatalf("space accounting %d bytes in %d extents, want %d in %d",
				after.TotalBytes, after.ExtentCount, before.TotalBytes-128, before.ExtentCount-2)
		}

		// Stamped, but the follower has not applied the checkpoint.
		s.Stamp(mark, 10)
		f.Applied(9)
		readable(t, s, a, true)
		// Applied: a goes; b, condemned past the mark, is not stamped yet.
		f.Applied(10)
		readable(t, s, a, false)
		readable(t, s, b, true)

		// A second follower holds b from registration on, and the first
		// leaving does not let it go.
		g := s.Follow()
		s.Stamp(s.CondemnMark(), 20)
		f.Leave()
		readable(t, s, b, true)
		g.Applied(20)
		readable(t, s, b, false)

		// With no follower registered a stamp releases at once.
		g.Leave()
		reclaim(t, s, c.Extent)
		readable(t, s, c, true)
		s.Stamp(s.CondemnMark(), 30)
		readable(t, s, c, false)
		if got := s.Stats(); got.TotalBytes != after.TotalBytes-64 {
			t.Fatalf("space accounting %d bytes, want %d: a release moved it", got.TotalBytes, after.TotalBytes-64)
		}
	})

	t.Run("reinstate", func(t *testing.T) {
		s, locs := open(true)
		a, b := locs[0], locs[8]
		reclaim(t, s, a.Extent)
		s.Stamp(s.CondemnMark(), 10)
		f := s.Follow() // holds a, stamped
		reclaim(t, s, b.Extent)
		s.Reinstate()
		// The unstamped extent is resident again, and reclaimable; the
		// stamped one stays condemned.
		var ids []ExtentID
		for _, u := range s.Usage(StreamBase) {
			ids = append(ids, u.Extent)
		}
		if !slices.Contains(ids, b.Extent) || slices.Contains(ids, a.Extent) || !slices.IsSorted(ids) {
			t.Fatalf("usage after reinstate lists extents %v (a=%d b=%d)", ids, a.Extent, b.Extent)
		}
		reclaim(t, s, b.Extent)
		f.Applied(10)
		readable(t, s, a, false)
		readable(t, s, b, true)
	})
}

func TestGCBytesReclaimedAccounting(t *testing.T) {
	s := Open(&Options{ExtentSize: 64})
	var locs []Loc
	for i := 0; i < 8; i++ {
		loc, _ := s.Append(StreamBase, uint64(i), bytes.Repeat([]byte{byte(i)}, 8))
		locs = append(locs, loc)
	}
	ext := locs[0].Extent
	for i, loc := range locs {
		if loc.Extent == ext && i%2 == 1 {
			s.Invalidate(loc)
		}
	}
	moved, err := s.Reclaim(StreamBase, ext, func(tag uint64, old, new Loc) bool { return true })
	if err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.GCBytesMoved != moved {
		t.Fatalf("GCBytesMoved = %d, want %d", st.GCBytesMoved, moved)
	}
	// The reclaimed extent held 64 bytes; `moved` of them were rewritten,
	// so the rest was freed.
	if want := 64 - moved; st.GCBytesReclaimed != want {
		t.Fatalf("GCBytesReclaimed = %d, want %d", st.GCBytesReclaimed, want)
	}
	if amp := st.GCWriteAmp(); amp <= 0 {
		t.Fatalf("GCWriteAmp = %f, want > 0 after moving bytes", amp)
	}
}

func TestGCBytesReclaimedOnExpiry(t *testing.T) {
	now := time.Unix(1000, 0)
	clock := func() time.Time { return now }
	s := Open(&Options{ExtentSize: 16, Now: clock})
	for i := 0; i < 4; i++ {
		if _, err := s.Append(StreamBase, uint64(i), []byte("12345678")); err != nil {
			t.Fatal(err)
		}
	}
	now = time.Unix(2000, 0)
	if _, err := s.Append(StreamBase, 9, []byte("12345678")); err != nil {
		t.Fatal(err)
	}
	dropped := s.DropExpired(StreamBase, time.Unix(1500, 0))
	if len(dropped) == 0 {
		t.Fatal("expected extents to expire")
	}
	st := s.Stats()
	// TTL expiry frees whole extents without moving a byte: reclaimed
	// bytes grow, write amp stays zero.
	if st.GCBytesReclaimed == 0 {
		t.Fatal("GCBytesReclaimed = 0 after TTL expiry, want > 0")
	}
	if st.GCBytesMoved != 0 {
		t.Fatalf("GCBytesMoved = %d, want 0 for TTL expiry", st.GCBytesMoved)
	}
	if amp := st.GCWriteAmp(); amp != 0 {
		t.Fatalf("GCWriteAmp = %f, want 0 for pure expiry", amp)
	}
}

func TestStoreRegisterMetrics(t *testing.T) {
	s := Open(&Options{ExtentSize: 64})
	r := metrics.NewRegistry()
	s.RegisterMetrics(r)
	if _, err := s.Append(StreamBase, 1, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	snap := r.Snapshot()
	if v := snap["storage.write_ops"]; v.Value != 1 {
		t.Fatalf("storage.write_ops = %+v, want 1", v)
	}
	if v := snap["storage.bytes_written"]; v.Value != 5 {
		t.Fatalf("storage.bytes_written = %+v, want 5", v)
	}
	for _, name := range []string{
		"storage.read_ops", "storage.bytes_read", "storage.gc_bytes_moved",
		"storage.gc_bytes_reclaimed", "storage.extents_reclaimed",
		"storage.extents_expired", "storage.live_bytes", "storage.total_bytes",
		"storage.extent_count", "storage.gc_write_amp",
	} {
		if _, ok := snap[name]; !ok {
			t.Fatalf("registry missing %q", name)
		}
	}
}
