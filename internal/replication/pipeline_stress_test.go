package replication

import (
	"errors"
	"sync"
	"testing"
	"time"

	"bg3/internal/bwtree"
	"bg3/internal/core"
	"bg3/internal/graph"
	"bg3/internal/refmodel"
	"bg3/internal/storage"
	"bg3/internal/wal"
)

// TestStressPipelinedCommitRacingPromote is the promotion-fence stress test
// with the commit pipeline wide open: 32 writer goroutines hammer a leader
// whose committer keeps up to 4 group appends in flight over slow storage,
// and a follower is promoted mid-pipeline (run under -race). One group's
// append tears, and its retry backs off until groups cut after it have landed
// and the promotion has fenced the log, so the old tenure always leaves a
// hole with durable groups past it. On top of the serial test's contract,
// this pins the pipelined failure mode:
//
//   - the pipeline genuinely overlapped appends (mean in-flight > 1), so
//     the fence really did land with several groups outstanding;
//   - groups that were durable behind the fence-rejected one (post-gap
//     debris) are never resurrected — the promotion's fence puts them below
//     the new tenure's epoch, whose first group purges them (the reader
//     skips them as fenced), and the delivered WAL stays a gapless LSN
//     sequence;
//   - a follower replaying the post-failover WAL matches the promoted
//     leader exactly (model-oracle equivalence).
func TestStressPipelinedCommitRacingPromote(t *testing.T) {
	const writers = 32

	plan := storage.NewFaultPlan(storage.FaultConfig{Seed: 1})
	st := storage.Open(&storage.Options{WriteLatency: 500 * time.Microsecond, Faults: plan})
	defer st.Close()
	opts := RWOptions{
		Engine:        core.Options{Tree: bwtree.Config{MaxPageEntries: 32}},
		CommitWindow:  100 * time.Microsecond,
		MaxBatch:      8,
		PipelineDepth: 4,
	}
	old, err := NewRWNode(st, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer old.Stop()
	if _, err := old.WriteSnapshot(); err != nil {
		t.Fatal(err)
	}

	// The debris. The torn group's retry sleeps until it is the only flight
	// left in the air and a reader of the log finds a durable group parked
	// past it — every other group cut so far has landed, so the torn one is
	// the only hole — and then until the promotion has fenced the log, so
	// the retry fails and the groups past it stay debris of the old tenure.
	// The other writers keep cutting groups after the torn one until all of
	// them wait on its ack.
	torn, promoted := make(chan struct{}), make(chan struct{})
	release := sync.OnceFunc(func() { close(promoted) })
	defer release()
	var tore sync.Once
	retry := storage.DefaultRetry
	retry.Sleep = func(d time.Duration) {
		tore.Do(func() {
			log := wal.NewReader(st)
			for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(100 * time.Microsecond) {
				if old.Engine().Metrics().Snapshot()["wal.pipeline_inflight"].Value == 1 {
					if _, err := log.PollGroups(); err != nil || log.PendingGroups() > 0 {
						break
					}
				}
			}
			close(torn)
			<-promoted
		})
		time.Sleep(d)
	}
	old.Writer().SetRetry(retry)

	// Each writer owns src 200+w and a truth of its own: its acknowledged
	// writes, and the one the fence rejected, which is in doubt (its data
	// record may have been durable in the gapless prefix while a later
	// record of the same op was cut off). Writers run until the fence
	// rejects them.
	type writerResult struct {
		truth *refmodel.Truth
		acked int
		err   error
	}
	results := make([]writerResult, writers)
	srcs := make([]graph.VertexID, writers)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		results[w].truth, srcs[w] = refmodel.NewTruth(), graph.VertexID(200+w)
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := &results[w]
			for i := 0; ; i++ {
				e := graph.Edge{Src: srcs[w], Dst: graph.VertexID(i % 64), Type: graph.ETypeFollow,
					Props: graph.Properties{{Name: "p", Value: []byte{byte(w), byte(i), byte(i >> 8)}}}}
				k := refmodel.EdgeKey(e.Src, e.Type, e.Dst)
				if r.err = old.AddEdge(e); r.err != nil {
					r.truth.FailPut(k, refmodel.Value(e.Props))
					return
				}
				r.truth.AckPut(k, refmodel.Value(e.Props))
				r.acked++
			}
		}(w)
	}

	// Let the pipeline fill, tear a group, then promote a follower over the
	// old leader while several group appends are in flight.
	time.Sleep(10 * time.Millisecond)
	plan.TearNext()
	select {
	case <-torn:
	case <-time.After(10 * time.Second):
		t.Fatal("no torn group backed off")
	}
	ro, err := NewRONode(st, time.Hour, 0)
	if err != nil {
		t.Fatal(err)
	}
	next, err := Promote(ro, opts)
	if err != nil {
		t.Fatalf("promote under pipelined write load: %v", err)
	}
	defer next.Stop()
	release()
	wg.Wait()

	// One epoch for the promotion, whether or not the killed pipeline left
	// durable post-gap debris: the new tenure's first group fences it.
	if e := next.Epoch(); e != 1 {
		t.Fatalf("promoted epoch = %d, want 1", e)
	}
	inflight := old.Engine().Metrics().Snapshot()["wal.inflight_groups"].IntHistogram
	if mean := inflight.Mean; mean <= 1 {
		t.Errorf("old leader's mean in-flight groups = %.2f, want > 1: the promotion never raced a full pipeline", mean)
	}
	acked := 0
	for w := range results {
		r := &results[w]
		if r.err == nil {
			t.Fatalf("writer %d stopped without an error; the fence let it run forever", w)
		}
		if !errors.Is(r.err, storage.ErrFenced) && !errors.Is(r.err, wal.ErrWriterFailed) {
			t.Fatalf("writer %d racing the fence got %v; want ErrFenced or ErrWriterFailed", w, r.err)
		}
		acked += r.acked
	}
	if acked == 0 {
		t.Fatal("no write was ever acknowledged before the fence; the race is vacuous")
	}
	t.Logf("fence cut off %d writers after %d acked writes; epoch %d, mean in-flight %.2f",
		writers, acked, next.Epoch(), inflight.Mean)

	// Post-failover workload on the new leader, on dsts disjoint from the
	// racing writes.
	for w := 0; w < writers; w++ {
		for i := 0; i < 8; i++ {
			e := graph.Edge{Src: srcs[w], Dst: graph.VertexID(64 + i), Type: graph.ETypeFollow,
				Props: graph.Properties{{Name: "p", Value: []byte{'n', byte(w), byte(i)}}}}
			if err := next.AddEdge(e); err != nil {
				t.Fatalf("post-failover write: %v", err)
			}
			results[w].truth.AckPut(refmodel.EdgeKey(e.Src, e.Type, e.Dst), refmodel.Value(e.Props))
		}
	}

	// Every acked write survives, the in-doubt op may or may not have
	// landed, and anything else is a phantom — in particular, nothing from a
	// fenced post-gap debris group may ever surface.
	follows := []graph.EdgeType{graph.ETypeFollow}
	leader, err := refmodel.Observe(next.Engine(), srcs, follows)
	if err != nil {
		t.Fatal(err)
	}
	for w := range results {
		if err := results[w].truth.Agrees(refmodel.Graph{srcs[w]: leader[srcs[w]]}); err != nil {
			t.Fatalf("writer %d across pipelined promotion: %v", w, err)
		}
	}

	// The durable log through a reader: delivery is a gapless LSN sequence
	// up to the promoted committer's head. Unlike the serial test, fenced
	// skips are legal here — they are exactly the post-gap debris groups the
	// new tenure's epoch retired — but the delivered sequence must not show a
	// seam.
	reader := wal.NewReader(st)
	groups, err := reader.PollGroups()
	if err != nil {
		t.Fatal(err)
	}
	var lsn wal.LSN
	for _, grp := range groups {
		for _, rec := range grp {
			lsn++
			if rec.LSN != lsn {
				t.Fatalf("WAL record has LSN %d, want %d: sequence must stay gapless across the fence", rec.LSN, lsn)
			}
		}
	}
	if last := next.LastLSN(); lsn != last {
		t.Fatalf("WAL delivered %d records but the promoted committer assigned up to LSN %d", lsn, last)
	}
	if reader.Epoch() != next.Epoch() {
		t.Fatalf("log tail epoch = %d, want %d", reader.Epoch(), next.Epoch())
	}
	t.Logf("replayed %d records; %d fenced debris records skipped", lsn, reader.FencedSkips())
	if reader.FencedSkips() == 0 {
		t.Fatal("no fenced debris record skipped: the torn group left no durable group past it")
	}

	// Model-oracle replay: a follower bootstraps from the promotion's
	// snapshot and drains the post-failover WAL tail; its state must match
	// the promoted leader's exactly.
	follower, err := NewRONode(st, time.Hour, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer follower.Stop()
	if err := follower.Poll(); err != nil {
		t.Fatal(err)
	}
	replayed, err := refmodel.Observe(follower.Replica(), srcs, follows)
	if err == nil {
		err = refmodel.Diff(replayed, leader)
	}
	if err != nil {
		t.Fatalf("replay against the promoted leader: %v", err)
	}
}
