package bwtree

import (
	"fmt"
	"testing"

	"bg3/internal/storage"
)

// TestAppendSplitWritesOnlyTheNewHalf loads 64 ascending runs of 64 keys into
// one tree, sync and logged (flushed after every run). Each run overfills the
// last leaf, which only grew at its right end: it splits at the run's first
// key, the left half keeps the base record it had, and only the new half is
// written. So every key is written about once — the bytes appended stay
// within 1.25× the live records' — and the tree reads back exactly.
func TestAppendSplitWritesOnlyTheNewHalf(t *testing.T) {
	const runs, perRun = 64, 64
	key := func(i int) []byte { return []byte(fmt.Sprintf("key-%06d", i)) }
	for _, logged := range []bool{false, true} {
		t.Run(fmt.Sprintf("logged=%v", logged), func(t *testing.T) {
			st := storage.Open(&storage.Options{ExtentSize: 1 << 20})
			var logger WALLogger
			if logged {
				logger = &stubAsyncLogger{}
			}
			tr, err := New(NewMapping(0, false), st, Config{MaxPageEntries: perRun}, logger)
			if err != nil {
				t.Fatal(err)
			}
			for r := 0; r < runs; r++ {
				leaves := leavesOf(tr)
				last := leaves[len(leaves)-1]
				last.mu.Lock()
				was := last.baseLoc
				last.mu.Unlock()
				splits := tr.Stats().Splits

				ws := make([]Write, perRun)
				for i := range ws {
					ws[i] = Write{Key: key(r*perRun + i), Value: []byte(fmt.Sprintf("%-16d", r*perRun+i))}
				}
				if n, err := tr.Apply(ws, nil); err != nil || n != perRun {
					t.Fatalf("run %d: applied %d of %d (%v)", r, n, perRun, err)
				}
				if logged {
					if _, err := tr.FlushDirty(nil); err != nil {
						t.Fatal(err)
					}
				}

				if got := tr.Stats().Splits - splits; r > 0 && got != 1 {
					t.Fatalf("run %d: %d splits, want the last leaf's one", r, got)
				}
				last.mu.Lock()
				now, hi := last.baseLoc, last.hi
				last.mu.Unlock()
				if r > 0 && (now != was || string(hi) != string(key(r*perRun))) {
					t.Fatalf("run %d: the split leaf ends at %q on %v, want at the run's first key on its base record %v", r, hi, now, was)
				}
			}

			s := st.Stats()
			t.Logf("%d B appended in %d records for %d B live", s.BytesWritten, s.WriteOps, s.LiveBytes)
			if 4*s.BytesWritten > 5*s.LiveBytes {
				t.Fatalf("%d B appended for %d B live: more than 1.25×", s.BytesWritten, s.LiveBytes)
			}
			if n, err := tr.Len(); err != nil || n != runs*perRun {
				t.Fatalf("len = %d (%v), want %d", n, err, runs*perRun)
			}
			next := 0
			if err := tr.Scan(nil, nil, 0, func(k, v []byte) bool {
				if string(k) != string(key(next)) || string(v) != fmt.Sprintf("%-16d", next) {
					t.Fatalf("scan: %q=%q at position %d", k, v, next)
				}
				next++
				return true
			}); err != nil || next != runs*perRun {
				t.Fatalf("scan delivered %d of %d (%v)", next, runs*perRun, err)
			}
		})
	}
}
