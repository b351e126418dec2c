package replication

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"bg3/internal/bwtree"
	"bg3/internal/core"
	"bg3/internal/graph"
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
				if old.Logger().InflightGroups() == 1 {
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

	edgeKey := func(src, dst graph.VertexID) string { return fmt.Sprintf("e|%d|%d", src, dst) }

	// Each writer owns src 200+w: its model slice is race-free. Writers run
	// until the fence rejects them; the rejected op is in-doubt.
	type writerResult struct {
		model      map[string][]byte
		inDoubt    string
		inDoubtVal []byte
		err        error
	}
	results := make([]writerResult, writers)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		results[w].model = make(map[string][]byte)
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			src := graph.VertexID(200 + w)
			for i := 0; ; i++ {
				dst := graph.VertexID(i % 64)
				val := []byte{byte(w), byte(i), byte(i >> 8)}
				err := old.AddEdge(graph.Edge{Src: src, Dst: dst, Type: graph.ETypeFollow,
					Props: graph.Properties{{Name: "p", Value: val}}})
				if err != nil {
					results[w].err = err
					results[w].inDoubt = edgeKey(src, dst)
					results[w].inDoubtVal = val
					return
				}
				results[w].model[edgeKey(src, dst)] = val
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
	if mean := old.Logger().InflightUtilization().Mean(); mean <= 1 {
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
		acked += len(r.model)
	}
	if acked == 0 {
		t.Fatal("no write was ever acknowledged before the fence; the race is vacuous")
	}
	t.Logf("fence cut off %d writers after %d acked writes; epoch %d, mean in-flight %.2f",
		writers, acked, next.Epoch(), old.Logger().InflightUtilization().Mean())

	// Post-failover workload on the new leader, on dsts disjoint from the
	// racing writes.
	postModel := make(map[string][]byte)
	for w := 0; w < writers; w++ {
		src := graph.VertexID(200 + w)
		for i := 0; i < 8; i++ {
			dst := graph.VertexID(64 + i)
			val := []byte{'n', byte(w), byte(i)}
			if err := next.AddEdge(graph.Edge{Src: src, Dst: dst, Type: graph.ETypeFollow,
				Props: graph.Properties{{Name: "p", Value: val}}}); err != nil {
				t.Fatalf("post-failover write: %v", err)
			}
			postModel[edgeKey(src, dst)] = val
		}
	}

	// Every acked write survives; the single fence-rejected op per writer is
	// in-doubt (its data record may have been durable in the gapless prefix
	// while a later record of the same op was cut off); anything else is a
	// phantom — in particular, nothing from a fenced post-gap debris group
	// may ever surface.
	engine := next.Engine()
	for w := range results {
		r := &results[w]
		src := graph.VertexID(200 + w)
		seen := make(map[string][]byte)
		err := engine.Neighbors(src, graph.ETypeFollow, 0, func(dst graph.VertexID, ps graph.Properties) bool {
			v, _ := ps.Get("p")
			seen[edgeKey(src, dst)] = bytes.Clone(v)
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
		for k, want := range r.model {
			got, ok := seen[k]
			if !ok {
				t.Fatalf("writer %d: acked write %q lost across pipelined promotion", w, k)
			}
			if string(got) != string(want) &&
				!(k == r.inDoubt && string(got) == string(r.inDoubtVal)) {
				t.Fatalf("writer %d: acked write %q = %x, want %x", w, k, got, want)
			}
		}
		for k, got := range seen {
			if _, ok := r.model[k]; ok {
				continue
			}
			if _, ok := postModel[k]; ok {
				continue
			}
			if k == r.inDoubt && string(got) == string(r.inDoubtVal) {
				continue // the in-doubt op landed in the gapless prefix; legal
			}
			t.Fatalf("writer %d: phantom edge %q = %x (debris resurrected or never acked)", w, k, got)
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
	replica := follower.Replica()
	for w := 0; w < writers; w++ {
		src := graph.VertexID(200 + w)
		fromReplica := make(map[string][]byte)
		err := replica.Neighbors(src, graph.ETypeFollow, 0, func(dst graph.VertexID, ps graph.Properties) bool {
			v, _ := ps.Get("p")
			fromReplica[edgeKey(src, dst)] = bytes.Clone(v)
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
		fromLeader := make(map[string][]byte)
		err = engine.Neighbors(src, graph.ETypeFollow, 0, func(dst graph.VertexID, ps graph.Properties) bool {
			v, _ := ps.Get("p")
			fromLeader[edgeKey(src, dst)] = bytes.Clone(v)
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(fromReplica) != len(fromLeader) {
			t.Fatalf("src %d: replay has %d edges, leader has %d", src, len(fromReplica), len(fromLeader))
		}
		for k, v := range fromLeader {
			if string(fromReplica[k]) != string(v) {
				t.Fatalf("src %d: replayed %q = %x, leader has %x", src, k, fromReplica[k], v)
			}
		}
	}
}
