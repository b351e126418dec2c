package wal

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"
	"unsafe"

	"bg3/internal/storage"
)

// frameCheckingAppender is a real Writer whose appends run late: each one
// sleeps a random while before and after its storage append
// (retries and torn writes included), and checks its group's envelope when it
// starts and again just before it returns. Both times the bytes must unframe
// to the group's own LSNs, and the second time they must be the bytes of the
// first: a frame handed to another cut while its append was in the air shows
// as another group's bytes.
type frameCheckingAppender struct {
	*Writer
	t *testing.T

	mu      sync.Mutex
	rng     *rand.Rand
	buffers map[*byte]int // envelope arrays seen, by how many groups used them
	groups  int
}

func (a *frameCheckingAppender) pause() {
	a.mu.Lock()
	d := time.Duration(a.rng.Intn(300)) * time.Microsecond
	a.mu.Unlock()
	time.Sleep(d)
}

func (a *frameCheckingAppender) check(g SealedGroup, when string) {
	meta, frames, ok, err := unframeGroup(g.Data)
	if !ok || err != nil {
		a.t.Errorf("group %d..%d %s: envelope ok=%v err=%v", g.First, g.Last, when, ok, err)
		return
	}
	if meta.First != g.First || meta.Count != g.Count || g.Last != g.First+LSN(g.Count)-1 {
		a.t.Errorf("group %d..%d %s: envelope holds %d records from %d", g.First, g.Last, when, meta.Count, meta.First)
	}
	for i, fr := range frames {
		if _, err := Decode(fr); err != nil {
			a.t.Errorf("group %d..%d %s: record %d: %v", g.First, g.Last, when, i, err)
		}
	}
}

func (a *frameCheckingAppender) AppendSealed(g SealedGroup) error {
	a.check(g, "as its append starts")
	start := bytes.Clone(g.Data)
	a.mu.Lock()
	a.buffers[unsafe.SliceData(g.Data)]++
	a.groups++
	a.mu.Unlock()
	a.pause()
	err := a.Writer.AppendSealed(g)
	a.pause()
	a.check(g, "as its append returns")
	if !bytes.Equal(g.Data, start) {
		a.t.Errorf("group %d..%d: envelope changed while its append was in the air", g.First, g.Last)
	}
	return err
}

// TestRecycledFramesNeverAliasAFlight drives a committer whose appends
// complete late over storage that tears and fails appends,
// with records from a few bytes to past the largest frame the committer
// keeps. Every group's envelope stays its own from seal to the return of its
// append (frameCheckingAppender), the committer does reuse envelope buffers,
// and the log holds every acked record under the LSN it was acked with. With
// enough retries every append lands; with two, the writer fails stop midway
// and the acks end at the log's gapless prefix.
func TestRecycledFramesNeverAliasAFlight(t *testing.T) {
	for _, tc := range []struct {
		name     string
		attempts int
	}{
		{"retried", 40},
		{"fail-stop", 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			plan := storage.NewFaultPlan(storage.FaultConfig{Seed: 5, TornWriteProb: 0.15, AppendFailProb: 0.1})
			st := storage.Open(&storage.Options{Faults: plan})
			defer st.Close()
			w := NewWriter(st)
			w.SetRetry(noSleep(storage.RetryPolicy{MaxAttempts: tc.attempts}))
			a := &frameCheckingAppender{Writer: w, t: t, rng: rand.New(rand.NewSource(9)), buffers: make(map[*byte]int)}
			c := newGroupCommitterFor(a, GroupCommitterOptions{MaxBatch: 8})

			const writers, perWriter = 8, 60
			type ack struct {
				lsn LSN
				key string
				err error
			}
			acks := make(chan ack, writers*perWriter)
			var wg sync.WaitGroup
			for i := 0; i < writers; i++ {
				wg.Add(1)
				go func(id int) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(id)))
					for j := 0; j < perWriter; j++ {
						size := rng.Intn(512)
						if rng.Intn(40) == 0 {
							size = maxKeptFrame + rng.Intn(4096) // a group no free list keeps
						}
						key := fmt.Sprintf("w%d/%d", id, j)
						lsn, err := c.Log(&Record{Type: RecordPut, Key: []byte(key), Value: make([]byte, size)})
						acks <- ack{lsn, key, err}
					}
				}(i)
			}
			wg.Wait()
			c.Stop()
			close(acks)

			plan.SetEnabled(false)
			recs, err := NewReader(st).Poll()
			if err != nil {
				t.Fatal(err)
			}
			logged := make(map[LSN]string, len(recs))
			for i, rec := range recs {
				if rec.LSN != LSN(i+1) {
					t.Fatalf("log record %d has LSN %d: the log is not gapless", i, rec.LSN)
				}
				logged[rec.LSN] = string(rec.Key)
			}
			acked, failed := 0, 0
			for a := range acks {
				switch {
				case a.err == nil && logged[a.lsn] != a.key:
					t.Errorf("LSN %d acked for %q, the log holds %q", a.lsn, a.key, logged[a.lsn])
				case a.err == nil:
					acked++
				case !errors.Is(a.err, ErrWriterFailed) && !errors.Is(a.err, ErrCommitterStopped):
					t.Errorf("%q failed with %v", a.key, a.err)
				default:
					failed++
				}
			}
			if acked != len(recs) {
				t.Errorf("%d records acked, the log's gapless prefix holds %d", acked, len(recs))
			}
			if tc.attempts > 2 && failed > 0 {
				t.Errorf("%d records failed although every append had %d attempts", failed, tc.attempts)
			}
			if tc.attempts == 2 && failed == 0 {
				t.Error("no append exhausted its retries: the fail-stop path was not exercised")
			}
			if st := plan.Stats(); st.TornWrites == 0 {
				t.Error("no append was torn")
			}
			a.mu.Lock()
			defer a.mu.Unlock()
			if reused := a.groups - len(a.buffers); reused == 0 {
				t.Errorf("%d groups in %d buffers: no envelope buffer was reused", a.groups, len(a.buffers))
			}
		})
	}
}
