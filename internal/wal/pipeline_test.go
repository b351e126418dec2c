package wal

import (
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bg3/internal/storage"
)

// fakeAppender implements sealedAppender over an in-memory "storage" whose
// append completions are released one by one from the outside, in any
// order — the scheduler a property test needs to explore out-of-order
// pipelined completion and mid-pipeline failure.
type fakeAppender struct {
	mu      sync.Mutex
	cond    sync.Cond
	next    LSN
	blocked map[LSN]chan error // in-flight appends by first LSN, awaiting release
	durable map[LSN]LSN        // completed appends: first LSN -> last LSN
	drain   bool               // release everything that still arrives
}

func newFakeAppender() *fakeAppender {
	f := &fakeAppender{
		next:    1,
		blocked: make(map[LSN]chan error),
		durable: make(map[LSN]LSN),
	}
	f.cond.L = &f.mu
	return f
}

func (f *fakeAppender) MaxRecordSize() int { return 1 << 20 }

func (f *fakeAppender) NextLSN() LSN {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.next
}

// SealAssigned seals every batch into exactly one group (no extent
// splitting in the fake).
func (f *fakeAppender) SealAssigned(dst []SealedGroup, recs []*Record, _ func(int) []byte) ([]SealedGroup, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	first, last := recs[0].LSN, recs[len(recs)-1].LSN
	f.next = last + 1
	return append(dst, SealedGroup{First: first, Last: last, Count: len(recs)}), nil
}

// AppendSealed parks the append until the scheduler releases it. A nil
// release marks the group durable before the committer learns of the
// completion, exactly like real storage.
func (f *fakeAppender) AppendSealed(g SealedGroup) error {
	ch := make(chan error, 1)
	f.mu.Lock()
	if f.drain {
		ch <- nil
	}
	f.blocked[g.First] = ch
	f.cond.Broadcast()
	f.mu.Unlock()
	err := <-ch
	f.mu.Lock()
	delete(f.blocked, g.First)
	if err == nil {
		f.durable[g.First] = g.Last
	}
	f.cond.Broadcast()
	f.mu.Unlock()
	return err
}

// gaplessPrefix returns the highest LSN such that every LSN up to it is
// durable.
func (f *fakeAppender) gaplessPrefix() LSN {
	f.mu.Lock()
	defer f.mu.Unlock()
	var p LSN
	for {
		last, ok := f.durable[p+1]
		if !ok {
			return p
		}
		p = last
	}
}

// releaseLoop keeps picking a random parked append and releasing it —
// failing the group that contains failLSN (0: no failure) — until
// drained() is signaled and nothing is parked.
func (f *fakeAppender) releaseLoop(rng *rand.Rand, failLSN LSN) {
	for {
		f.mu.Lock()
		for len(f.blocked) == 0 && !f.drain {
			f.cond.Wait()
		}
		if len(f.blocked) == 0 && f.drain {
			f.mu.Unlock()
			return
		}
		firsts := make([]LSN, 0, len(f.blocked))
		for first, ch := range f.blocked {
			if ch == nil {
				continue
			}
			firsts = append(firsts, first)
		}
		if len(firsts) == 0 {
			// Everything parked was already released and is finishing up.
			f.cond.Wait()
			f.mu.Unlock()
			continue
		}
		first := firsts[rng.Intn(len(firsts))]
		ch := f.blocked[first]
		f.blocked[first] = nil // released, completion pending
		last := f.durableBoundLocked(first)
		f.mu.Unlock()
		if failLSN != 0 && first <= failLSN && failLSN <= last {
			ch <- errors.New("fake: injected append failure")
		} else {
			ch <- nil
		}
	}
}

// durableBoundLocked is a helper to recover a parked group's last LSN from
// the next parked or durable first (the fake does not store it); the
// committer only parks contiguous groups, so the bound is first..next-1
// capped by what SealAssigned handed out. For failure targeting we only
// need "does the group starting at first contain failLSN", which the
// caller checks against the next group boundary.
func (f *fakeAppender) durableBoundLocked(first LSN) LSN {
	bound := f.next - 1
	for other := range f.blocked {
		if other > first && other-1 < bound {
			bound = other - 1
		}
	}
	for other := range f.durable {
		if other > first && other-1 < bound {
			bound = other - 1
		}
	}
	return bound
}

func (f *fakeAppender) drained() {
	f.mu.Lock()
	f.drain = true
	for first, ch := range f.blocked {
		if ch != nil {
			f.blocked[first] = nil
			ch <- nil
		}
	}
	f.cond.Broadcast()
	f.mu.Unlock()
}

// TestPipelinedCommitProperty drives the committer against the fake for
// random (depth, batch size, completion order, failure point) schedules and
// checks the durable-prefix contract:
//
//   - an acked record implies its group and every earlier group were
//     durable at ack time (no ack precedes durability, acks release in LSN
//     order);
//   - with a failure injected at some group, the ack/fail partition is
//     exact: every LSN before the failed group's first acks nil, every LSN
//     from it on fails;
//   - after the dust settles, storage's gapless durable prefix ends
//     exactly where the acks did.
func TestPipelinedCommitProperty(t *testing.T) {
	const records = 24
	for seed := int64(1); seed <= 10; seed++ {
		seed := seed
		t.Run("", func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			depth := 1 + rng.Intn(8)
			maxBatch := 1 + rng.Intn(3)
			var failLSN LSN
			if rng.Intn(2) == 0 {
				failLSN = LSN(1 + rng.Intn(records))
			}

			f := newFakeAppender()
			c := newGroupCommitterFor(f, GroupCommitterOptions{
				PipelineDepth: depth,
				MaxBatch:      maxBatch,
			})
			var schedWG sync.WaitGroup
			schedWG.Add(1)
			go func() {
				defer schedWG.Done()
				f.releaseLoop(rand.New(rand.NewSource(seed+1000)), failLSN)
			}()

			results := make([]error, records+1)
			var assigned atomic.Int64
			var wg sync.WaitGroup
			for i := 0; i < records; i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					lsn, wait := c.LogAsync(&Record{Type: RecordPut, Key: []byte("k")})
					err := wait()
					if lsn == 0 {
						// Rejected after pipeline death, before an LSN existed.
						if err == nil {
							t.Errorf("seed %d: record acked without an LSN", seed)
						}
						return
					}
					assigned.Add(1)
					results[lsn] = err
					if err == nil {
						if p := f.gaplessPrefix(); p < lsn {
							t.Errorf("seed %d: lsn %d acked with durable prefix %d", seed, lsn, p)
						}
					}
				}()
			}
			wg.Wait()
			f.drained()
			schedWG.Wait()
			c.Stop()

			// The partition point: the first LSN of the group containing
			// failLSN. Recover it from the ack results themselves and then
			// verify both sides are pure.
			// LSNs are assigned contiguously from 1, so the count of assigned
			// records is also the highest assigned LSN.
			maxLSN := LSN(assigned.Load())
			cut := maxLSN + 1
			if failLSN != 0 {
				for lsn := LSN(1); lsn <= maxLSN; lsn++ {
					if results[lsn] != nil {
						cut = lsn
						break
					}
				}
				if cut > failLSN {
					t.Fatalf("seed %d: failure at %d but first failed ack is %d", seed, failLSN, cut)
				}
			}
			for lsn := LSN(1); lsn <= maxLSN; lsn++ {
				if lsn < cut && results[lsn] != nil {
					t.Errorf("seed %d: lsn %d before the failed group got %v", seed, lsn, results[lsn])
				}
				if lsn >= cut && results[lsn] == nil {
					t.Errorf("seed %d: lsn %d at/after the failed group acked durable", seed, lsn)
				}
			}
			if p := f.gaplessPrefix(); p < cut-1 {
				t.Errorf("seed %d: durable prefix %d, want at least %d (every acked LSN durable)", seed, p, cut-1)
			}
			if failLSN == 0 {
				if maxLSN != records {
					t.Errorf("seed %d: no failure injected but only %d/%d records assigned", seed, maxLSN, records)
				}
				if p := f.gaplessPrefix(); p != records {
					t.Errorf("seed %d: no failure injected but durable prefix is %d/%d", seed, p, records)
				}
			}
		})
	}
}

// TestPipelineUtilizationOverlapsAppends pins that depth > 1 actually
// overlaps storage round trips: with slow appends and single-record
// groups, the mean in-flight count observed at dispatch exceeds 1, and the
// log remains a gapless, fully-delivered sequence despite out-of-order
// completions.
func TestPipelineUtilizationOverlapsAppends(t *testing.T) {
	const writers, ops = 16, 6
	st := storage.Open(&storage.Options{WriteLatency: 2 * time.Millisecond})
	defer st.Close()
	w := NewWriter(st)
	c := NewGroupCommitter(w, GroupCommitterOptions{PipelineDepth: 4, MaxBatch: 1})
	var wg sync.WaitGroup
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < ops; j++ {
				if _, err := c.Log(&Record{Type: RecordPut, Key: []byte{byte(i), byte(j)}}); err != nil {
					t.Errorf("writer %d: %v", i, err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	c.Stop()

	if mean := c.inflightHist.Mean(); mean <= 1 {
		t.Errorf("mean in-flight = %.2f, want > 1 (pipeline never overlapped)", mean)
	}
	if c.ackReorder.Count() == 0 {
		t.Error("no ack-reorder observations despite pipelined flushes")
	}

	recs, err := NewReader(st).Poll()
	if err != nil {
		t.Fatalf("replay after pipelined commits: %v", err)
	}
	if len(recs) != writers*ops {
		t.Fatalf("replayed %d records, want %d", len(recs), writers*ops)
	}
	for i, rec := range recs {
		if rec.LSN != LSN(i+1) {
			t.Fatalf("record %d has LSN %d: delivery out of order", i, rec.LSN)
		}
	}
}
