package wal

import (
	"bytes"
	"errors"
	"math/rand"
	"sync"
	"testing"
	"time"

	"bg3/internal/storage"
)

// TestGroupCommitterProperty drives the committer with random record sizes,
// writer counts, and arrival jitter, and checks the group-commit contract
// from the outside:
//
//   - every record is acked exactly once, successfully, with a distinct LSN;
//   - LSNs are gapless and assigned in enqueue order;
//   - the WAL's group envelopes partition the LSN space contiguously, in
//     order, and no flush exceeds MaxBatch (flush boundaries are externally
//     observable: one sealed group per storage entry).
func TestGroupCommitterProperty(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		writers := 2 + rng.Intn(8)
		perWriter := 10 + rng.Intn(40)
		maxBatch := 1 + rng.Intn(24)
		var delay time.Duration
		if rng.Intn(2) == 1 {
			delay = time.Duration(rng.Intn(500)) * time.Microsecond
		}
		queueDepth := maxBatch + rng.Intn(64)

		st := storage.Open(&storage.Options{WriteLatency: time.Duration(rng.Intn(300)) * time.Microsecond})
		w := NewWriter(st)
		c := NewGroupCommitter(w, GroupCommitterOptions{
			MaxBatch:   maxBatch,
			MaxDelay:   delay,
			QueueDepth: queueDepth,
		})

		total := writers * perWriter
		type ack struct {
			lsn LSN
			err error
		}
		acks := make(chan ack, total)
		var wg sync.WaitGroup
		for i := 0; i < writers; i++ {
			wg.Add(1)
			go func(id int) {
				defer wg.Done()
				wrng := rand.New(rand.NewSource(seed*1000 + int64(id)))
				for j := 0; j < perWriter; j++ {
					val := bytes.Repeat([]byte{byte(id)}, wrng.Intn(128))
					lsn, err := c.Log(&Record{Type: RecordPut, Key: []byte{byte(id), byte(j)}, Value: val})
					acks <- ack{lsn, err}
					if wrng.Intn(4) == 0 {
						time.Sleep(time.Duration(wrng.Intn(200)) * time.Microsecond)
					}
				}
			}(i)
		}
		wg.Wait()
		c.Stop()
		close(acks)

		seen := make(map[LSN]bool)
		for a := range acks {
			if a.err != nil {
				t.Fatalf("seed %d: ack error: %v", seed, a.err)
			}
			if seen[a.lsn] {
				t.Fatalf("seed %d: LSN %d acked twice", seed, a.lsn)
			}
			seen[a.lsn] = true
		}
		if len(seen) != total {
			t.Fatalf("seed %d: acks = %d, want %d", seed, len(seen), total)
		}
		for l := LSN(1); l <= LSN(total); l++ {
			if !seen[l] {
				t.Fatalf("seed %d: LSN %d never acked — sequence has a hole", seed, l)
			}
		}

		groups, err := NewReader(st).PollGroups()
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		next := LSN(1)
		for gi, grp := range groups {
			if len(grp) > maxBatch {
				t.Fatalf("seed %d: group %d has %d records, MaxBatch %d", seed, gi, len(grp), maxBatch)
			}
			for _, rec := range grp {
				if rec.LSN != next {
					t.Fatalf("seed %d: group %d: LSN %d, want %d — groups must partition the log in order",
						seed, gi, rec.LSN, next)
				}
				next++
			}
		}
		if next != LSN(total)+1 {
			t.Fatalf("seed %d: WAL holds %d records, want %d", seed, next-1, total)
		}

		flushes, records := c.BatchStats()
		if records != int64(total) {
			t.Fatalf("seed %d: committed records = %d, want %d", seed, records, total)
		}
		if c.GroupSize().Count() != flushes {
			t.Fatalf("seed %d: group_size observations = %d, flushes = %d",
				seed, c.GroupSize().Count(), flushes)
		}
	}
}

// TestGroupCommitterFlushErrorPartition injects a permanent storage failure
// midway and checks the failure fan-out contract: the durable WAL is a
// gapless prefix 1..K, every record with LSN <= K was acked nil, and every
// record with LSN > K — the failed flush and everything queued behind it on
// the poisoned writer — was acked with the error.
func TestGroupCommitterFlushErrorPartition(t *testing.T) {
	plan := storage.NewFaultPlan(storage.FaultConfig{Seed: 7, AppendFailProb: 1})
	plan.SetEnabled(false)
	st := storage.Open(&storage.Options{Faults: plan, WriteLatency: 100 * time.Microsecond})
	w := NewWriter(st)
	w.SetRetry(noSleep(storage.RetryPolicy{MaxAttempts: 1}))
	c := NewGroupCommitter(w, GroupCommitterOptions{MaxBatch: 4})
	defer c.Stop()

	const total = 200
	type ack struct {
		lsn LSN
		err error
	}
	acks := make(chan ack, total)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for j := 0; j < total/8; j++ {
				lsn, err := c.Log(&Record{Type: RecordPut, Key: []byte{byte(id), byte(j)}})
				acks <- ack{lsn, err}
			}
		}(i)
	}
	// Let some commits land, then fail every append from here on.
	time.Sleep(2 * time.Millisecond)
	plan.SetEnabled(true)
	wg.Wait()
	close(acks)

	recs, err := NewReader(st).Poll()
	if err != nil {
		t.Fatal(err)
	}
	k := LSN(len(recs))
	for i, rec := range recs {
		if rec.LSN != LSN(i+1) {
			t.Fatalf("durable record %d has LSN %d: durable prefix must be gapless", i, rec.LSN)
		}
	}
	failed := 0
	for a := range acks {
		switch {
		case a.err == nil && a.lsn > k:
			t.Fatalf("LSN %d acked durable but the WAL ends at %d", a.lsn, k)
		case a.err != nil && a.lsn != 0 && a.lsn <= k:
			t.Fatalf("LSN %d is durable but was acked with %v", a.lsn, a.err)
		case a.err != nil:
			if !errors.Is(a.err, ErrWriterFailed) && !errors.Is(a.err, ErrCommitterStopped) {
				t.Fatalf("failed ack carries unexpected error: %v", a.err)
			}
			failed++
		}
	}
	if failed == 0 {
		t.Fatal("fault plan never failed a flush; partition not exercised")
	}
	if k == 0 {
		t.Fatal("no commit landed before the fault; partition not exercised")
	}
}

// TestGroupCommitterSizeTriggerCutsDelay checks that a full batch flushes
// without waiting out a long MaxDelay.
func TestGroupCommitterSizeTriggerCutsDelay(t *testing.T) {
	st := storage.Open(nil)
	w := NewWriter(st)
	c := NewGroupCommitter(w, GroupCommitterOptions{MaxBatch: 8, MaxDelay: time.Hour})
	defer c.Stop()

	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := c.Log(&Record{Type: RecordPut, Key: []byte{byte(i)}}); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("size trigger did not fire: %v elapsed", elapsed)
	}
}

// TestGroupCommitterQueueDepthBackpressure checks that writers beyond
// QueueDepth block instead of growing the queue without bound, and that the
// stall is visible in the stall histogram.
func TestGroupCommitterQueueDepthBackpressure(t *testing.T) {
	st := storage.Open(&storage.Options{WriteLatency: 2 * time.Millisecond})
	w := NewWriter(st)
	c := NewGroupCommitter(w, GroupCommitterOptions{MaxBatch: 2, QueueDepth: 2})
	defer c.Stop()

	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := c.Log(&Record{Type: RecordPut, Key: []byte{byte(i)}}); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
	if recs, err := NewReader(st).Poll(); err != nil || len(recs) != 16 {
		t.Fatalf("records = %d (err %v), want 16", len(recs), err)
	}
	// 16 writers against a depth-2 queue must have stalled at least once.
	if c.StallLatency().Summary().Count == 0 {
		t.Fatal("no stall recorded despite queue depth 2 and 16 writers")
	}
}

// TestGroupCommitterStopFailsStalledWriters checks that Stop wakes writers
// blocked on a full queue instead of leaving them waiting forever.
func TestGroupCommitterStopFailsStalledWriters(t *testing.T) {
	plan := storage.NewFaultPlan(storage.FaultConfig{Seed: 11, AppendFailProb: 1})
	st := storage.Open(&storage.Options{Faults: plan})
	w := NewWriter(st)
	w.SetRetry(noSleep(storage.RetryPolicy{MaxAttempts: 1}))
	c := NewGroupCommitter(w, GroupCommitterOptions{MaxBatch: 1, QueueDepth: 1})

	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, err := c.Log(&Record{Type: RecordPut, Key: []byte{byte(i)}})
			errs <- err
		}(i)
	}
	time.Sleep(time.Millisecond)
	c.Stop()
	wg.Wait()
	close(errs)
	for err := range errs {
		if err == nil {
			continue // landed (poisoned writer still acks the error path; a nil means pre-fault)
		}
		if !errors.Is(err, ErrCommitterStopped) && !errors.Is(err, ErrWriterFailed) {
			t.Fatalf("unexpected error: %v", err)
		}
	}
}
