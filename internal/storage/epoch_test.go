package storage

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

// TestEpochFencingContract pins the admission rule: an append is admitted
// iff its epoch token exactly equals the stream's current epoch. Plain
// Append carries token 0, so fencing a stream cuts off every legacy writer
// at once; tokens above the current epoch are just as dead as ones below —
// an epoch must be claimed through OpenStreamEpoch/AdvanceStreamEpoch
// before anyone may append under it.
func TestEpochFencingContract(t *testing.T) {
	s := Open(nil)
	defer s.Close()

	if _, err := s.Append(StreamWAL, 0, []byte("pre")); err != nil {
		t.Fatalf("append at epoch 0: %v", err)
	}
	if err := s.OpenStreamEpoch(StreamWAL, 2); err != nil {
		t.Fatalf("open epoch 2: %v", err)
	}
	if got := s.StreamEpoch(StreamWAL); got != 2 {
		t.Fatalf("StreamEpoch = %d, want 2", got)
	}

	for _, tc := range []struct {
		token uint64
		ok    bool
	}{
		{0, false}, // legacy writer, fenced
		{1, false}, // stale epoch
		{2, true},  // current epoch
		{3, false}, // unclaimed future epoch
	} {
		_, _, err := s.AppendEpoch(StreamWAL, tc.token, 0, []byte("x"))
		if tc.ok && err != nil {
			t.Errorf("token %d: append failed: %v", tc.token, err)
		}
		if !tc.ok && !errors.Is(err, ErrFenced) {
			t.Errorf("token %d: err = %v, want ErrFenced", tc.token, err)
		}
	}
	if errors.Is(errTake(s.Append(StreamWAL, 0, []byte("x"))), ErrTransient) {
		t.Error("ErrFenced must not look transient")
	}
	if IsTransient(fmt.Errorf("wrapped: %w", ErrFenced)) {
		t.Error("IsTransient(ErrFenced) = true; fenced appends must fail-stop, not retry")
	}

	// Re-opening the current epoch is idempotent; opening below it fails;
	// fencing never moves backwards.
	if err := s.OpenStreamEpoch(StreamWAL, 2); err != nil {
		t.Fatalf("idempotent reopen: %v", err)
	}
	if err := s.OpenStreamEpoch(StreamWAL, 1); !errors.Is(err, ErrFenced) {
		t.Fatalf("open stale epoch: err = %v, want ErrFenced", err)
	}
	if got := s.StreamEpoch(StreamWAL); got != 2 {
		t.Fatalf("failed open moved the epoch to %d", got)
	}

	// Epochs are per stream: fencing the WAL leaves page streams writable.
	if _, err := s.Append(StreamBase, 1, []byte("page")); err != nil {
		t.Fatalf("base stream caught the WAL fence: %v", err)
	}

	st := s.Stats()
	if st.FencedAppends != 4 {
		t.Errorf("FencedAppends = %d, want 4", st.FencedAppends)
	}
}

// TestEpochMonotonicityProperty is the promotion-safety property: under any
// interleaving of OpenStreamEpoch and AdvanceStreamEpoch calls from
// competing promoters, exactly one epoch can append afterwards — the
// highest ever claimed — and every AdvanceStreamEpoch call returns a
// distinct epoch (no two promoters are ever told they own the same one).
func TestEpochMonotonicityProperty(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := Open(nil)
		var max uint64
		claimed := make(map[uint64]bool)
		for op := 0; op < 30; op++ {
			if rng.Intn(2) == 0 {
				e, err := s.AdvanceStreamEpoch(StreamWAL)
				if err != nil {
					t.Fatalf("seed %d: advance: %v", seed, err)
				}
				if claimed[e] {
					t.Fatalf("seed %d: epoch %d claimed twice", seed, e)
				}
				claimed[e] = true
				if e <= max {
					t.Fatalf("seed %d: advance returned %d, not above %d", seed, e, max)
				}
				max = e
			} else {
				e := uint64(rng.Intn(12))
				err := s.OpenStreamEpoch(StreamWAL, e)
				switch {
				case e < max && !errors.Is(err, ErrFenced):
					t.Fatalf("seed %d: open stale %d (max %d): err = %v, want ErrFenced", seed, e, max, err)
				case e >= max && err != nil:
					t.Fatalf("seed %d: open %d (max %d): %v", seed, e, max, err)
				case e > max:
					max = e
				}
			}
			// Invariant after every step: exactly one token can append.
			for tok := uint64(0); tok <= max+1; tok++ {
				_, _, err := s.AppendEpoch(StreamWAL, tok, 0, []byte("probe"))
				if (tok == max) != (err == nil) {
					t.Fatalf("seed %d op %d: token %d at epoch %d: err = %v", seed, op, tok, max, err)
				}
			}
		}
		s.Close()
	}
}

// TestEpochAdvanceConcurrent races promoters claiming epochs with writers
// appending under the ones they won: every claim is unique, and once the
// dust settles only the final epoch can append. Run under -race this also
// checks the fence's synchronization against concurrent appends.
func TestEpochAdvanceConcurrent(t *testing.T) {
	s := Open(nil)
	defer s.Close()

	const promoters = 8
	epochs := make([]uint64, promoters)
	var wg sync.WaitGroup
	for i := 0; i < promoters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			e, err := s.AdvanceStreamEpoch(StreamWAL)
			if err != nil {
				t.Errorf("promoter %d: %v", i, err)
				return
			}
			epochs[i] = e
			// Append under the claimed epoch: legal only while still the
			// holder; a later claim turns this into ErrFenced. Either way it
			// must never be a silent partial admission.
			if _, _, err := s.AppendEpoch(StreamWAL, e, 0, []byte("tenure")); err != nil && !errors.Is(err, ErrFenced) {
				t.Errorf("promoter %d append: %v", i, err)
			}
		}(i)
	}
	wg.Wait()

	seen := make(map[uint64]bool)
	for i, e := range epochs {
		if e == 0 || seen[e] {
			t.Fatalf("promoter %d got epoch %d (duplicate or unclaimed)", i, e)
		}
		seen[e] = true
	}
	final := s.StreamEpoch(StreamWAL)
	if final != promoters {
		t.Fatalf("final epoch %d, want %d", final, promoters)
	}
	for tok := uint64(0); tok <= promoters; tok++ {
		_, _, err := s.AppendEpoch(StreamWAL, tok, 0, []byte("probe"))
		if (tok == final) != (err == nil) {
			t.Fatalf("token %d after the race: err = %v", tok, err)
		}
	}
}

// TestFencedAppendLeavesNoBytes pins the fail-stop guarantee that makes
// zombie writes invisible rather than merely failed: a fenced append
// persists nothing — not even a torn prefix — so a deposed leader cannot
// leave bytes for a reader to trip over, and the stream's contents are
// exactly the admitted appends.
func TestFencedAppendLeavesNoBytes(t *testing.T) {
	plan := NewFaultPlan(FaultConfig{})
	s := Open(&Options{Faults: plan})
	defer s.Close()

	if _, err := s.Append(StreamWAL, 0, []byte("pre-fence")); err != nil {
		t.Fatal(err)
	}
	if err := s.OpenStreamEpoch(StreamWAL, 1); err != nil {
		t.Fatal(err)
	}
	// Even with a forced torn write armed, the fence check runs first: the
	// zombie append persists zero bytes and the tear stays armed for the
	// next admitted append.
	plan.TearNext()
	if _, _, err := s.AppendEpoch(StreamWAL, 0, 7, []byte("zombie")); !errors.Is(err, ErrFenced) {
		t.Fatalf("fenced append err = %v", err)
	}
	if _, _, err := s.AppendEpoch(StreamWAL, 1, 0, []byte("post-fence")); !errors.Is(err, ErrTornWrite) {
		t.Fatal("armed tear should have hit the first admitted append")
	}

	entries, _, err := s.Scan(StreamWAL, Cursor{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, e := range entries {
		got = append(got, string(e.Data))
	}
	for _, d := range got {
		if d == "zombie" {
			t.Fatalf("fenced append became durable: %q", got)
		}
	}
	if len(got) == 0 || got[0] != "pre-fence" {
		t.Fatalf("stream contents = %q", got)
	}
}
