package wal

import (
	"errors"
	"testing"

	"bg3/internal/storage"
)

// epochEntry describes one storage append in a crafted WAL tail: a group
// envelope of put records with LSNs first..last sealed under epoch,
// optionally torn (truncated mid-envelope, as a crash or fenced-out flush
// leaves it).
type epochEntry struct {
	epoch, first, last uint64
	torn               bool
}

func env(epoch, first, last uint64) epochEntry {
	return epochEntry{epoch: epoch, first: first, last: last}
}

func tornEnv(epoch, first, last uint64) epochEntry {
	e := env(epoch, first, last)
	e.torn = true
	return e
}

// TestReaderSkipsZombieTails pins the reader half of the fencing contract:
// groups sealed under a fence epoch below the highest one observed are
// zombies from a deposed leader and must be skipped — counted, invisible,
// and without breaking the surviving epoch's LSN continuity. Epoch bumps
// must not mask genuine holes either: a group past a hole fails the poll with
// ErrHole.
func TestReaderSkipsZombieTails(t *testing.T) {
	cases := []struct {
		name    string
		entries []epochEntry
		want    []uint64 // LSNs delivered
		fenced  int64
		torn    int64
		dups    int64
		epoch   uint64 // reader's final epoch
		hole    bool   // the poll fails with ErrHole
	}{
		{
			name:    "clean epoch handoff",
			entries: []epochEntry{env(0, 1, 2), env(1, 3, 3)},
			want:    []uint64{1, 2, 3},
			epoch:   1,
		},
		{
			name: "zombie envelope after the fence",
			entries: []epochEntry{
				env(0, 1, 2),
				env(1, 3, 3),
				env(0, 3, 4), // deposed leader's tail
				env(1, 4, 4),
			},
			want:   []uint64{1, 2, 3, 4},
			fenced: 2,
			epoch:  1,
		},
		{
			name: "torn flush then promoted leader reuses the LSN",
			entries: []epochEntry{
				env(0, 1, 1),
				tornEnv(0, 2, 2), // the kill landed mid-envelope
				env(1, 2, 2),     // never durable, so the successor resumes at 2
			},
			want:  []uint64{1, 2},
			torn:  1,
			epoch: 1,
		},
		{
			name: "retry duplicate and zombie together",
			entries: []epochEntry{
				env(0, 1, 1),
				env(0, 1, 1), // torn-append retry duplicate
				env(1, 2, 2),
				env(0, 2, 2), // zombie reusing the promoted LSN
			},
			want:   []uint64{1, 2},
			fenced: 1,
			dups:   1,
			epoch:  1,
		},
		{
			name: "multiple failovers interleaved",
			entries: []epochEntry{
				env(0, 1, 1),
				env(2, 2, 2), // second failover's leader
				env(1, 2, 2), // first failover's zombie, itself deposed
				env(2, 3, 3),
			},
			want:   []uint64{1, 2, 3},
			fenced: 1,
			epoch:  2,
		},
		{
			name: "epoch bump does not mask a real hole",
			entries: []epochEntry{
				env(0, 1, 1),
				env(1, 3, 3), // LSN 2 is genuinely missing
			},
			want: []uint64{1},
			hole: true,
		},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			st := storage.Open(nil)
			defer st.Close()
			for _, e := range tc.entries {
				var recs []*Record
				for lsn := e.first; lsn <= e.last; lsn++ {
					recs = append(recs, &Record{Type: RecordPut, Key: []byte("k"), Value: []byte("v")})
				}
				buf := sealGroup(nil, GroupMeta{Epoch: e.epoch, First: LSN(e.first), Count: len(recs)}, recs)
				if e.torn {
					buf = buf[:len(buf)-3]
				}
				if _, err := st.Append(storage.StreamWAL, 0, buf); err != nil {
					t.Fatal(err)
				}
			}

			r := NewReader(st)
			recs, err := r.Poll()
			if errors.Is(err, ErrHole) != tc.hole || (err != nil && !tc.hole) {
				t.Fatalf("Poll: %v, want a hole: %v", err, tc.hole)
			}
			var got []uint64
			for _, rec := range recs {
				got = append(got, uint64(rec.LSN))
			}
			if len(got) != len(tc.want) {
				t.Fatalf("delivered LSNs %v, want %v", got, tc.want)
			}
			for i := range got {
				if got[i] != tc.want[i] {
					t.Fatalf("delivered LSNs %v, want %v", got, tc.want)
				}
			}
			torn, dups := r.Stats()
			if torn != tc.torn || dups != tc.dups || r.FencedSkips() != tc.fenced {
				t.Errorf("torn/dups/fenced = %d/%d/%d, want %d/%d/%d",
					torn, dups, r.FencedSkips(), tc.torn, tc.dups, tc.fenced)
			}
			if r.Epoch() != tc.epoch {
				t.Errorf("reader epoch = %d, want %d", r.Epoch(), tc.epoch)
			}
		})
	}
}

// TestWriterFailsStopOnFence pins the writer half: once the stream is
// fenced, the next append fails with an error wrapping storage.ErrFenced
// (never retried — the fence is permanent), the writer is poisoned, and
// every subsequent append reports ErrWriterFailed. A writer built after
// the fence adopts the new epoch and seals its groups under it.
func TestWriterFailsStopOnFence(t *testing.T) {
	st := storage.Open(nil)
	defer st.Close()

	old := NewWriter(st)
	if _, err := appendNext(old, &Record{Type: RecordPut, Key: []byte("a"), Value: []byte("1")}); err != nil {
		t.Fatal(err)
	}
	if _, err := st.AdvanceStreamEpoch(storage.StreamWAL); err != nil {
		t.Fatal(err)
	}

	_, err := appendNext(old, &Record{Type: RecordPut, Key: []byte("b"), Value: []byte("2")})
	if !errors.Is(err, storage.ErrFenced) {
		t.Fatalf("fenced append err = %v, want ErrFenced", err)
	}
	if _, err := appendNext(old, &Record{Type: RecordPut, Key: []byte("c"), Value: []byte("3")}); !errors.Is(err, ErrWriterFailed) {
		t.Fatalf("post-fence append err = %v, want ErrWriterFailed", err)
	}
	if old.Err() == nil {
		t.Fatal("fenced writer not poisoned")
	}

	succ := NewWriterFromEpoch(st, 2, st.StreamEpoch(storage.StreamWAL))
	if succ.Epoch() != 1 {
		t.Fatalf("successor epoch = %d, want 1", succ.Epoch())
	}
	if _, err := appendNext(succ, &Record{Type: RecordPut, Key: []byte("b"), Value: []byte("2")}); err != nil {
		t.Fatal(err)
	}

	r := NewReader(st)
	recs, err := r.Poll()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || recs[0].Epoch != 0 || recs[1].Epoch != 1 {
		t.Fatalf("log contents: %d records", len(recs))
	}
	if r.FencedSkips() != 0 {
		t.Fatal("the storage fence admitted zombie bytes")
	}
}

// TestNewWriterFromEpochRejectsLostRace pins the promotion-race contract: a
// candidate that claimed epoch N but lost to a rival on N+1 builds its
// writer with the explicitly claimed token — so its first append fails with
// ErrFenced instead of silently adopting the rival's epoch and interleaving
// conflicting LSNs into the winner's log.
func TestNewWriterFromEpochRejectsLostRace(t *testing.T) {
	st := storage.Open(nil)
	mine, err := st.AdvanceStreamEpoch(storage.StreamWAL)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.AdvanceStreamEpoch(storage.StreamWAL); err != nil { // the rival wins
		t.Fatal(err)
	}

	w := NewWriterFromEpoch(st, 1, mine)
	if _, err := appendNext(w, &Record{Type: RecordPut, Key: []byte("k"), Value: []byte("v")}); !errors.Is(err, storage.ErrFenced) {
		t.Fatalf("loser's append err = %v, want ErrFenced", err)
	}
}
