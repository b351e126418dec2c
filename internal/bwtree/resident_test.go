package bwtree

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"bg3/internal/storage"
)

// residentIsRecord reports whether e's resident base is the record at its base
// location itself: the same bytes in the same place, not an equal copy. A
// record of a reclaimed extent no longer reads on a store without a log, so a
// base that is its record is never one GC retired.
func residentIsRecord(st *storage.Store, e *pageEntry) (bool, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	rec, err := st.Read(e.baseLoc)
	if err != nil {
		return false, err
	}
	return e.base.is(rec), nil
}

// TestResidentBaseIsItsRecord: every base a leader holds resident is its
// durable record where storage keeps it, not a copy beside it — after a
// fresh-base flush, after a consolidation, after a split's halves are flushed
// and after GC moved the record (Relocate repoints the image by identity, so
// no resident base keeps a reclaimed extent's record). An image that is not
// the moved record is left as it was: a split half not yet flushed, which
// reads its parent's image through its own range, and a base merged with its
// delta chain at load, which is content of its own however equal. On a sync
// tree and on a logged one, where the flusher writes; the race subtest runs
// GC's reclaims against writers and the flusher.
func TestResidentBaseIsItsRecord(t *testing.T) {
	for _, logged := range []bool{false, true} {
		name := "sync"
		if logged {
			name = "logged"
		}
		t.Run(name, func(t *testing.T) {
			st := storage.Open(&storage.Options{ExtentSize: 64 << 10})
			m := NewMapping(0, false)
			var logger WALLogger
			if logged {
				logger = &stubAsyncLogger{}
			}
			tr, err := New(m, st, Config{MaxPageEntries: 16}, logger)
			if err != nil {
				t.Fatal(err)
			}
			put := func(i int, v string) {
				t.Helper()
				if err := tr.Put([]byte(fmt.Sprintf("key-%03d", i)), []byte(v)); err != nil {
					t.Fatal(err)
				}
			}
			flush := func() {
				t.Helper()
				if _, err := tr.FlushDirty(nil); err != nil {
					t.Fatal(err)
				}
			}
			// records checks that every leaf's resident base is its record.
			records := func(when string) {
				t.Helper()
				for _, e := range leavesOf(tr) {
					if ok, err := residentIsRecord(st, e); !ok || err != nil {
						t.Fatalf("%s: leaf %d's resident base is not the record at %v (%v)", when, e.id, e.baseLoc, err)
					}
				}
			}
			// reclaim moves the live base records of ext and checks that no
			// resident base is one of the records it held, but for keep.
			reclaim := func(when string, ext storage.ExtentID, keep PageID) {
				t.Helper()
				var held [][]byte
				for _, e := range leavesOf(tr) {
					if e.baseLoc.Extent == ext && !e.baseLoc.IsZero() {
						rec, err := st.Read(e.baseLoc)
						if err != nil {
							t.Fatal(err)
						}
						held = append(held, rec)
					}
				}
				if len(held) == 0 {
					t.Fatalf("fixture: %s: no leaf based in extent %d", when, ext)
				}
				if _, err := st.Reclaim(storage.StreamBase, ext, m.Relocate); err != nil {
					t.Fatal(err)
				}
				for _, e := range leavesOf(tr) {
					for _, rec := range held {
						if e.id != keep && e.base.is(rec) {
							t.Fatalf("%s: leaf %d's resident base is still a record of reclaimed extent %d", when, e.id, ext)
						}
					}
				}
			}

			for i := 0; i < 12; i++ {
				put(i, "a")
			}
			flush()
			root := leavesOf(tr)[0]
			records("after a fresh-base flush")

			before := tr.Stats().Consolidations
			for i := 0; i <= tr.cfg.ConsolidateNum; i++ {
				put(0, fmt.Sprintf("b%d", i))
			}
			flush()
			if tr.Stats().Consolidations == before {
				t.Fatal("fixture: no consolidation")
			}
			records("after a consolidation")

			reclaim("after Reclaim", root.baseLoc.Extent, 0)
			records("after Reclaim")

			// A split: on a sync tree both halves are written at once; on a
			// logged one the right half reads the parent's image until the
			// flusher writes it, and a move of the parent's record leaves
			// that image as it was.
			for i := 12; i < 20; i++ {
				put(i, "c")
			}
			leaves := leavesOf(tr)
			if len(leaves) != 2 {
				t.Fatalf("fixture: %d leaves after 20 keys, want a split into 2", len(leaves))
			}
			if right := leaves[1]; logged {
				right.mu.Lock()
				half := right.base
				right.mu.Unlock()
				if !right.baseLoc.IsZero() || !half.is(root.base) {
					t.Fatalf("fixture: the logged tree's right half is at %v, not over its parent's image", right.baseLoc)
				}
				reclaim("after Reclaim under an unflushed split", root.baseLoc.Extent, right.id)
				right.mu.Lock()
				same := right.base.is(half)
				right.mu.Unlock()
				if !same {
					t.Fatal("Reclaim of the parent's record replaced the unflushed right half's image")
				}
				if ok, err := residentIsRecord(st, root); !ok || err != nil {
					t.Fatalf("after Reclaim under an unflushed split, the left half's base is not its moved record (%v)", err)
				}
				flush()
			}
			records("after a split")

			// A base merged with its chain at load is not its base record,
			// even where its bytes are (the delta rewrites a value as it
			// is): a move of the record leaves it.
			put(1, "a")
			flush()
			root.mu.Lock()
			if len(root.deltaLocs) != 1 {
				root.mu.Unlock()
				t.Fatalf("fixture: %d delta records", len(root.deltaLocs))
			}
			bufs, err := st.ReadBatch([]storage.Loc{root.baseLoc, root.deltaLocs[0]})
			if err == nil {
				root.base, err = m.image(bufs, true)
			}
			merged, moved := root.base, root.baseLoc
			root.mu.Unlock()
			if err != nil {
				t.Fatal(err)
			}
			reclaim("after Reclaim of a load-merged page", moved.Extent, 0)
			root.mu.Lock()
			kept, at := root.base.is(merged), root.baseLoc
			root.mu.Unlock()
			if !kept || at == moved {
				t.Fatalf("Reclaim of a load-merged page: image kept %v, base moved from %v to %v", kept, moved, at)
			}
			if v, ok, err := tr.Get([]byte("key-001")); err != nil || !ok || string(v) != "a" {
				t.Fatalf("key-001 = %q %v %v after the load-merged page moved, want \"a\"", v, ok, err)
			}
		})
	}

	// GC reclaims every base extent it finds while writers split and
	// overwrite and the flusher writes: afterwards every resident base is
	// its record, none of a reclaimed extent, and the tree reads back whole.
	t.Run("race", func(t *testing.T) {
		st := storage.Open(&storage.Options{ExtentSize: 16 << 10})
		m := NewMapping(0, false)
		tr, err := New(m, st, Config{MaxPageEntries: 32}, &stubAsyncLogger{})
		if err != nil {
			t.Fatal(err)
		}
		const writers, keys = 2, 800
		var stop atomic.Bool
		var wg sync.WaitGroup
		errs := make(chan error, 4)
		loop := func(step func() error) {
			defer wg.Done()
			for !stop.Load() {
				if err := step(); err != nil {
					errs <- err
					return
				}
			}
		}
		wg.Add(2)
		go loop(func() error { _, err := tr.FlushDirty(nil); return err })
		go loop(func() error {
			for _, u := range st.Usage(storage.StreamBase) {
				if _, err := st.Reclaim(storage.StreamBase, u.Extent, m.Relocate); err != nil && !errors.Is(err, storage.ErrReclaimed) {
					return err
				}
			}
			return nil
		})
		var put sync.WaitGroup
		for w := 0; w < writers; w++ {
			put.Add(1)
			go func(w int) {
				defer put.Done()
				// Past three passes, write on until GC has reclaimed
				// a few extents under the writers (or give up).
				for i := w; i < 3*keys || (i < 100*keys && st.Stats().ExtentsReclaimed < 8); i += writers {
					if err := tr.Put([]byte(fmt.Sprintf("key-%05d", i%keys)), []byte(fmt.Sprintf("%d", i))); err != nil {
						errs <- err
						return
					}
				}
			}(w)
		}
		put.Wait()
		stop.Store(true)
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
		if _, err := tr.FlushDirty(nil); err != nil {
			t.Fatal(err)
		}
		if n := st.Stats().ExtentsReclaimed; n < 8 {
			t.Fatalf("fixture: GC reclaimed %d extents under the writers, want >= 8", n)
		}
		for _, e := range leavesOf(tr) {
			if ok, err := residentIsRecord(st, e); !ok || err != nil {
				t.Fatalf("leaf %d's resident base is not the record at %v (%v)", e.id, e.baseLoc, err)
			}
		}
		if n, err := tr.Len(); err != nil || n != keys {
			t.Fatalf("Len = %d %v, want %d", n, err, keys)
		}
	})
}
