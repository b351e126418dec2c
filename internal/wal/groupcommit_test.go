package wal

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bg3/internal/storage"
)

// fakeAppender implements sealedAppender over an in-memory "storage" whose
// appends complete when the test releases them, and which keeps how many
// were ever in the air at once.
type fakeAppender struct {
	mu       sync.Mutex
	cond     sync.Cond
	next     LSN
	inAir    []*fakeAppend
	maxInAir int
	durable  map[LSN]LSN // completed appends: first LSN -> last LSN
	drain    bool        // release everything that still arrives
}

// fakeAppend is one append in the air: done receives its outcome.
type fakeAppend struct {
	g        SealedGroup
	done     chan error
	released bool
}

func newFakeAppender() *fakeAppender {
	f := &fakeAppender{next: 1, durable: make(map[LSN]LSN)}
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

// AppendSealed holds the append until the test releases it. A nil release
// marks the group durable before the committer learns of the completion,
// exactly like real storage.
func (f *fakeAppender) AppendSealed(g SealedGroup) error {
	a := &fakeAppend{g: g, done: make(chan error, 1)}
	f.mu.Lock()
	if f.drain {
		a.done <- nil
		a.released = true
	}
	f.inAir = append(f.inAir, a)
	f.maxInAir = max(f.maxInAir, len(f.inAir))
	f.cond.Broadcast()
	f.mu.Unlock()
	err := <-a.done
	f.mu.Lock()
	f.inAir = slices.DeleteFunc(f.inAir, func(b *fakeAppend) bool { return b == a })
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

// releaseLoop releases appends as they arrive — failing the one whose group
// holds failLSN (0: none) — until drained was called and none is in the air.
func (f *fakeAppender) releaseLoop(failLSN LSN) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for {
		i := slices.IndexFunc(f.inAir, func(a *fakeAppend) bool { return !a.released })
		switch {
		case i >= 0:
			a := f.inAir[i]
			a.released = true
			var err error
			if a.g.First <= failLSN && failLSN <= a.g.Last {
				err = errors.New("fake: injected append failure")
			}
			a.done <- err
		case f.drain && len(f.inAir) == 0:
			return
		default:
			f.cond.Wait()
		}
	}
}

// drained releases every append in the air, and every later one as it
// arrives.
func (f *fakeAppender) drained() {
	f.mu.Lock()
	f.drain = true
	for _, a := range f.inAir {
		if !a.released {
			a.released = true
			a.done <- nil
		}
	}
	f.cond.Broadcast()
	f.mu.Unlock()
}

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

		st := storage.Open(&storage.Options{WriteLatency: time.Duration(rng.Intn(300)) * time.Microsecond})
		w := NewWriter(st)
		c := NewGroupCommitter(w, GroupCommitterOptions{
			MaxBatch: maxBatch,
			MaxDelay: delay,
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

		flushes, records := c.batches.Load(), c.records.Load()
		if records != int64(total) {
			t.Fatalf("seed %d: committed records = %d, want %d", seed, records, total)
		}
		if c.groupSize.Count() != flushes {
			t.Fatalf("seed %d: group_size observations = %d, flushes = %d",
				seed, c.groupSize.Count(), flushes)
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

// TestGroupCommitterStopFailsStalledWriters checks that Stop fails the
// writers waiting behind the cut in the air with ErrCommitterStopped instead
// of leaving them waiting forever, while that append completes and acks its
// writer.
func TestGroupCommitterStopFailsStalledWriters(t *testing.T) {
	f := newFakeAppender()
	c := newGroupCommitterFor(f, GroupCommitterOptions{MaxBatch: 1})

	first := make(chan error, 1)
	go func() {
		_, err := c.Log(&Record{Type: RecordPut, Key: []byte{0}})
		first <- err
	}()
	f.mu.Lock()
	for len(f.inAir) == 0 {
		f.cond.Wait() // the first cut is in the air
	}
	f.mu.Unlock()

	const stalled = 7
	errs := make(chan error, stalled)
	var wg sync.WaitGroup
	defer wg.Wait()
	for i := 1; i <= stalled; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, err := c.Log(&Record{Type: RecordPut, Key: []byte{byte(i)}})
			errs <- err
		}(i)
	}
	for c.LastLSN() < stalled+1 {
		time.Sleep(100 * time.Microsecond)
	}
	stopped := make(chan struct{})
	go func() {
		c.Stop()
		close(stopped)
	}()
	for i := 0; i < stalled; i++ {
		if err := <-errs; !errors.Is(err, ErrCommitterStopped) {
			t.Fatalf("stalled writer got %v, want ErrCommitterStopped", err)
		}
	}
	select {
	case <-stopped:
		t.Fatal("Stop returned with an append in flight")
	default:
	}
	f.drained()
	<-stopped
	if err := <-first; err != nil {
		t.Fatalf("in-flight record failed across Stop: %v", err)
	}
	if _, err := c.Log(&Record{Type: RecordPut}); !errors.Is(err, ErrCommitterStopped) {
		t.Fatalf("Log after Stop: %v, want ErrCommitterStopped", err)
	}
}

// TestCommitterOwnsNoGoroutine pins that the committer runs on its writers'
// goroutines: constructing it and committing through it leaves the goroutine
// count where it was.
func TestCommitterOwnsNoGoroutine(t *testing.T) {
	f := newFakeAppender()
	f.drained() // every append completes at once
	before := settledGoroutines()
	c := newGroupCommitterFor(f, GroupCommitterOptions{})
	if n := runtime.NumGoroutine(); n != before {
		t.Fatalf("%d goroutines after NewGroupCommitter, %d before", n, before)
	}
	for i := 0; i < 1000; i++ {
		if _, err := c.Log(&Record{Type: RecordPut, Key: []byte("k")}); err != nil {
			t.Fatal(err)
		}
	}
	if n := runtime.NumGoroutine(); n != before {
		t.Fatalf("%d goroutines after 1000 Logs, %d before", n, before)
	}
	c.Stop()
}

// settledGoroutines returns the goroutine count once the goroutines earlier
// tests left on their way out have exited: two readings a millisecond apart
// agree.
func settledGoroutines() int {
	n := runtime.NumGoroutine()
	for i := 0; i < 1000; i++ {
		time.Sleep(time.Millisecond)
		m := runtime.NumGoroutine()
		if m == n {
			break
		}
		n = m
	}
	return n
}

// TestPipelinedCommitProperty drives the committer against the fake for
// random (batch size, failure point) schedules, with writers queueing while a
// cut is in the air, and checks the durable-prefix contract:
//
//   - at most one append is ever in the air;
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
		t.Run("", func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			maxBatch := 1 + rng.Intn(3)
			var failLSN LSN
			if rng.Intn(2) == 0 {
				failLSN = LSN(1 + rng.Intn(records))
			}

			f := newFakeAppender()
			c := newGroupCommitterFor(f, GroupCommitterOptions{MaxBatch: maxBatch})
			var schedWG sync.WaitGroup
			schedWG.Add(1)
			go func() {
				defer schedWG.Done()
				f.releaseLoop(failLSN)
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
						// Rejected after the failure, before an LSN existed.
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

			if f.maxInAir > 1 {
				t.Errorf("seed %d: %d appends in the air at once, want at most 1", seed, f.maxInAir)
			}
			// The partition point: the first LSN of the group containing
			// failLSN. Recover it from the ack results themselves and then
			// verify both sides are pure. LSNs are assigned contiguously from
			// 1, so the count of assigned records is also the highest
			// assigned LSN.
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

// TestOneFlightLeavesNoHole: a group's append tears, and its retry backs off
// while eight writers keep queueing records behind it; then a crash point
// fails the retry and the writer fails stop. The committer keeps one cut in
// the air, so nothing queued behind the torn group was appended meanwhile:
// the log a fresh reader reads is gapless, holds every acked record under the
// LSN it was acked with, and PollGroups returns no error.
func TestOneFlightLeavesNoHole(t *testing.T) {
	const writers = 8
	plan := storage.NewFaultPlan(storage.FaultConfig{Seed: 11})
	st := storage.Open(&storage.Options{Faults: plan, WriteLatency: 50 * time.Microsecond})
	defer st.Close()
	w := NewWriter(st)
	c := NewGroupCommitter(w, GroupCommitterOptions{MaxBatch: 4})
	defer c.Stop()

	// The torn group's retry sleeps until the records logged behind it
	// stopped growing — every writer not waiting on the torn group logged
	// one — and then the crash fails it and every later append.
	var behind LSN
	var backedOff sync.Once
	retry := storage.DefaultRetry
	retry.Sleep = func(time.Duration) {
		backedOff.Do(func() {
			torn := w.NextLSN() - 1 // the torn cut's last LSN
			for last, still, deadline := torn, 0, time.Now().Add(2*time.Second); still < 20 && time.Now().Before(deadline); {
				time.Sleep(100 * time.Microsecond)
				if n := c.LastLSN(); n != last || n == torn {
					last, still = n, 0
				} else {
					still++
				}
			}
			behind = c.LastLSN() - torn
			plan.ScheduleCrash(1)
		})
	}
	w.SetRetry(retry)

	type ack struct {
		lsn LSN
		key string
	}
	var (
		mu     sync.Mutex
		acks   []ack
		logged atomic.Int64
		tear   sync.Once
		wg     sync.WaitGroup
	)
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; ; j++ {
				key := fmt.Sprintf("w%d/%d", i, j)
				lsn, err := c.Log(&Record{Type: RecordPut, Key: []byte(key)})
				if err != nil {
					return
				}
				mu.Lock()
				acks = append(acks, ack{lsn, key})
				mu.Unlock()
				if logged.Add(1) == 64 {
					tear.Do(plan.TearNext)
				}
			}
		}()
	}
	wg.Wait()
	if behind == 0 {
		t.Fatal("no record logged behind the torn group: the test is vacuous")
	}
	plan.ClearCrash()
	plan.SetEnabled(false)

	r := NewReader(st)
	groups, err := r.PollGroups()
	if err != nil {
		t.Fatalf("PollGroups over the crashed writer's log: %v", err)
	}
	log := make(map[LSN]string)
	for _, g := range groups {
		for _, rec := range g {
			if rec.LSN != LSN(len(log)+1) {
				t.Fatalf("record with LSN %d after %d: the log is not gapless", rec.LSN, len(log))
			}
			log[rec.LSN] = string(rec.Key)
		}
	}
	for _, a := range acks {
		if log[a.lsn] != a.key {
			t.Errorf("LSN %d acked for %q, the log holds %q", a.lsn, a.key, log[a.lsn])
		}
	}
	if torn, _ := r.Stats(); torn == 0 {
		t.Error("no append tore")
	}
	t.Logf("%d acked, %d logged, %d logged behind the torn group", len(acks), len(log), behind)
}
