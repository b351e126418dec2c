package replication

import (
	"sync"
	"testing"
	"time"

	"bg3/internal/bwtree"
	"bg3/internal/core"
	"bg3/internal/graph"
	"bg3/internal/metrics"
	"bg3/internal/netsim"
	"bg3/internal/storage"
	"bg3/internal/wal"
)

// commitCounts reads the groups and records l released, as wal.commit_batches
// and wal.commit_records.
func commitCounts(l *wal.GroupCommitter) (batches, records int64) {
	reg := metrics.NewRegistry()
	l.RegisterMetrics(reg)
	s := reg.Snapshot()
	return s["wal.commit_batches"].Value, s["wal.commit_records"].Value
}

func TestGroupCommitAssignsAllLSNs(t *testing.T) {
	st := storage.Open(nil)
	w := wal.NewWriter(st)
	l := wal.NewGroupCommitter(w, wal.GroupCommitterOptions{})
	defer l.Stop()

	var wg sync.WaitGroup
	const workers, per = 8, 50
	lsns := make(chan wal.LSN, workers*per)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < per; j++ {
				lsn, err := l.Log(&wal.Record{Type: wal.RecordPut, Key: []byte("k")})
				if err != nil {
					t.Error(err)
					return
				}
				lsns <- lsn
			}
		}()
	}
	wg.Wait()
	close(lsns)
	seen := map[wal.LSN]bool{}
	for lsn := range lsns {
		if seen[lsn] {
			t.Fatalf("duplicate LSN %d", lsn)
		}
		seen[lsn] = true
	}
	if len(seen) != workers*per {
		t.Fatalf("LSNs = %d, want %d", len(seen), workers*per)
	}
	// Reading the WAL back yields all records in LSN order.
	recs, err := wal.NewReader(st).Poll()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != workers*per {
		t.Fatalf("WAL records = %d", len(recs))
	}
	for i, r := range recs {
		if r.LSN != wal.LSN(i+1) {
			t.Fatalf("record %d has LSN %d", i, r.LSN)
		}
	}
}

func TestGroupCommitBatches(t *testing.T) {
	st := storage.Open(&storage.Options{WriteLatency: 2 * time.Millisecond})
	w := wal.NewWriter(st)
	l := wal.NewGroupCommitter(w, wal.GroupCommitterOptions{})
	defer l.Stop()

	var wg sync.WaitGroup
	const n = 64
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := l.Log(&wal.Record{Type: wal.RecordPut}); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	batches, records := commitCounts(l)
	if records != n {
		t.Fatalf("records = %d, want %d", records, n)
	}
	if batches >= n {
		t.Fatalf("batches = %d: no batching happened under concurrency", batches)
	}
}

// newRO attaches a follower (NewRONode), failing the test when it cannot.
func newRO(t testing.TB, st *storage.Store, interval time.Duration, cacheCapacity int) *RONode {
	t.Helper()
	ro, err := NewRONode(st, interval, cacheCapacity)
	if err != nil {
		t.Fatal(err)
	}
	return ro
}

// waitCut waits until ro has made the cut of the checkpoint record at lsn
// (core.Replica.CutLSN) or the timeout elapses. A checkpoint applies after its
// commit group is published, so a follower reaching its LSN (WaitVisible)
// may not have cut its overlays yet.
func waitCut(ro *RONode, lsn wal.LSN, timeout time.Duration) bool {
	for deadline := time.Now().Add(timeout); ro.Replica().CutLSN() < lsn; time.Sleep(200 * time.Microsecond) {
		if time.Now().After(deadline) {
			return false
		}
	}
	return true
}

func newPair(t *testing.T, rwOpts RWOptions, pollInterval time.Duration) (*RWNode, *RONode, *storage.Store) {
	t.Helper()
	st := storage.Open(&storage.Options{ExtentSize: 1 << 16})
	rw, err := NewRWNode(st, rwOpts)
	if err != nil {
		t.Fatal(err)
	}
	ro := newRO(t, st, pollInterval, 0)
	t.Cleanup(func() {
		ro.Stop()
		rw.Stop()
	})
	return rw, ro, st
}

func TestRWROEndToEnd(t *testing.T) {
	rw, ro, _ := newPair(t, RWOptions{}, time.Millisecond)
	if err := rw.AddVertex(graph.Vertex{ID: 1, Type: graph.VTypeUser}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if err := rw.AddEdge(graph.Edge{Src: 1, Dst: graph.VertexID(i + 10), Type: graph.ETypeFollow}); err != nil {
			t.Fatal(err)
		}
	}
	lsn := rw.LastLSN()
	if !ro.WaitVisible(lsn, 2*time.Second) {
		t.Fatalf("RO never reached LSN %d (at %d)", lsn, ro.Replica().HighLSN())
	}
	if deg, err := ro.Replica().Degree(1, graph.ETypeFollow); err != nil || deg != 100 {
		t.Fatalf("RO degree = %d %v", deg, err)
	}
	if _, ok, _ := ro.Replica().GetVertex(1, graph.VTypeUser); !ok {
		t.Fatal("RO missing vertex")
	}
	if err := ro.Err(); err != nil {
		t.Fatal(err)
	}
}

func TestCheckpointTruncatesROBuffers(t *testing.T) {
	rw, ro, _ := newPair(t, RWOptions{}, time.Millisecond)
	for i := 0; i < 200; i++ {
		if err := rw.AddEdge(graph.Edge{Src: 2, Dst: graph.VertexID(i), Type: graph.ETypeLike}); err != nil {
			t.Fatal(err)
		}
	}
	lsn := rw.LastLSN()
	if !ro.WaitVisible(lsn, 2*time.Second) {
		t.Fatal("RO lagging")
	}
	if ro.Replica().BufferedRecords() == 0 {
		t.Fatal("expected lazy-replay backlog before checkpoint")
	}
	if err := rw.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if !waitCut(ro, rw.LastLSN(), 2*time.Second) {
		t.Fatal("RO missed checkpoint")
	}
	if got := ro.Replica().BufferedRecords(); got != 0 {
		t.Fatalf("RO buffer after checkpoint = %d records", got)
	}
	if deg, _ := ro.Replica().Degree(2, graph.ETypeLike); deg != 200 {
		t.Fatalf("RO degree after checkpoint = %d", deg)
	}
}

func TestBackgroundFlusherCheckpoints(t *testing.T) {
	rw, ro, _ := newPair(t, RWOptions{FlushInterval: 2 * time.Millisecond}, time.Millisecond)
	for i := 0; i < 300; i++ {
		if err := rw.AddEdge(graph.Edge{Src: 3, Dst: graph.VertexID(i), Type: graph.ETypeFollow}); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) && rw.checkpoints.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	if rw.checkpoints.Load() == 0 {
		t.Fatal("background flusher never checkpointed")
	}
	lsn := rw.LastLSN()
	if !ro.WaitVisible(lsn, 2*time.Second) {
		t.Fatal("RO lagging after background checkpoints")
	}
	if deg, _ := ro.Replica().Degree(3, graph.ETypeFollow); deg != 300 {
		t.Fatalf("RO degree = %d", deg)
	}
}

func TestMultipleROsStayConsistent(t *testing.T) {
	st := storage.Open(&storage.Options{ExtentSize: 1 << 16})
	rw, err := NewRWNode(st, RWOptions{FlushInterval: 3 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer rw.Stop()
	var ros []*RONode
	for i := 0; i < 3; i++ {
		ro := newRO(t, st, time.Millisecond, 0)
		defer ro.Stop()
		ros = append(ros, ro)
	}
	const writers, per = 4, 100
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if err := rw.AddEdge(graph.Edge{
					Src: graph.VertexID(w + 1), Dst: graph.VertexID(i), Type: graph.ETypeFollow,
				}); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	lsn := rw.LastLSN()
	for i, ro := range ros {
		if !ro.WaitVisible(lsn, 2*time.Second) {
			t.Fatalf("RO %d lagging", i)
		}
		for w := 0; w < writers; w++ {
			deg, err := ro.Replica().Degree(graph.VertexID(w+1), graph.ETypeFollow)
			if err != nil || deg != per {
				t.Fatalf("RO %d: degree(%d) = %d %v", i, w+1, deg, err)
			}
		}
		if err := ro.Err(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestWALSyncSurvivesForestMigration(t *testing.T) {
	rw, ro, _ := newPair(t, RWOptions{
		Engine: core.Options{SplitThreshold: 20, Tree: bwtree.Config{MaxPageEntries: 8}},
	}, time.Millisecond)
	// Push one owner over the forest threshold so a migration happens in
	// the replicated pipeline.
	for i := 0; i < 60; i++ {
		if err := rw.AddEdge(graph.Edge{Src: 9, Dst: graph.VertexID(i), Type: graph.ETypeLike}); err != nil {
			t.Fatal(err)
		}
	}
	if rw.Engine().Forest().Stats().Migrations == 0 {
		t.Fatal("no migration happened")
	}
	lsn := rw.LastLSN()
	if !ro.WaitVisible(lsn, 2*time.Second) {
		t.Fatal("RO lagging")
	}
	if deg, err := ro.Replica().Degree(9, graph.ETypeLike); err != nil || deg != 60 {
		t.Fatalf("RO degree after migration = %d %v", deg, err)
	}
}

func newSimpleEngine(t *testing.T) *core.Engine {
	t.Helper()
	e, err := core.New(core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Close)
	return e
}

func TestForwardingClusterLosesDataUnderPacketLoss(t *testing.T) {
	leader := newSimpleEngine(t)
	followers := []graph.Store{newSimpleEngine(t), newSimpleEngine(t)}
	links := []*netsim.Link{
		netsim.NewLink(0.3, 0, 0, 1),
		netsim.NewLink(0.0, 0, 0, 2),
	}
	c := NewForwardingCluster(leader, followers, links)
	var edges []graph.Edge
	for i := 0; i < 500; i++ {
		e := graph.Edge{Src: graph.VertexID(i % 10), Dst: graph.VertexID(i), Type: graph.ETypeTransfer}
		if err := c.AddEdge(e); err != nil {
			t.Fatal(err)
		}
		edges = append(edges, e)
	}
	recalls := c.Recall(edges, 10*time.Millisecond)
	if recalls[0] > 0.85 || recalls[0] < 0.5 {
		t.Fatalf("lossy follower recall = %.3f, want ~0.7", recalls[0])
	}
	if recalls[1] != 1.0 {
		t.Fatalf("lossless follower recall = %.3f, want 1.0", recalls[1])
	}
	// The leader itself has everything.
	for _, e := range edges[:20] {
		if _, ok, _ := c.Leader().GetEdge(e.Src, e.Type, e.Dst); !ok {
			t.Fatal("leader lost its own write")
		}
	}
}

func TestWALRecallIsPerfect(t *testing.T) {
	rw, ro, _ := newPair(t, RWOptions{}, time.Millisecond)
	var edges []graph.Edge
	for i := 0; i < 300; i++ {
		e := graph.Edge{Src: graph.VertexID(i % 7), Dst: graph.VertexID(i), Type: graph.ETypeTransfer}
		if err := rw.AddEdge(e); err != nil {
			t.Fatal(err)
		}
		edges = append(edges, e)
	}
	lsn := rw.LastLSN()
	if !ro.WaitVisible(lsn, 2*time.Second) {
		t.Fatal("RO lagging")
	}
	if recall := WALRecall(ro.Replica(), edges); recall != 1.0 {
		t.Fatalf("WAL recall = %.3f, want 1.0", recall)
	}
}

func TestSyncLatencyBounded(t *testing.T) {
	// With injected storage latency, leader-follower sync latency is
	// roughly write-latency + poll interval and independent of load —
	// the Fig. 13 shape in miniature.
	st := storage.Open(&storage.Options{
		ExtentSize:   1 << 16,
		WriteLatency: time.Millisecond,
	})
	rw, err := NewRWNode(st, RWOptions{CommitWindow: 2 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer rw.Stop()
	ro := newRO(t, st, 2*time.Millisecond, 0)
	defer ro.Stop()

	var worst time.Duration
	for i := 0; i < 20; i++ {
		start := time.Now()
		if err := rw.AddEdge(graph.Edge{Src: 1, Dst: graph.VertexID(i), Type: graph.ETypeFollow}); err != nil {
			t.Fatal(err)
		}
		lsn := rw.LastLSN()
		if !ro.WaitVisible(lsn, time.Second) {
			t.Fatalf("edge %d never visible", i)
		}
		if d := time.Since(start); d > worst {
			worst = d
		}
	}
	if worst > 500*time.Millisecond {
		t.Fatalf("worst sync latency = %v, want bounded", worst)
	}
}

func TestROPageCacheBounded(t *testing.T) {
	st := storage.Open(&storage.Options{ExtentSize: 1 << 16})
	rw, err := NewRWNode(st, RWOptions{
		Engine: core.Options{Tree: bwtree.Config{MaxPageEntries: 8}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rw.Stop()
	ro := newRO(t, st, time.Millisecond, 4) // tiny RO cache
	defer ro.Stop()
	for i := 0; i < 400; i++ {
		if err := rw.AddEdge(graph.Edge{Src: graph.VertexID(i % 20), Dst: graph.VertexID(i), Type: graph.ETypeFollow}); err != nil {
			t.Fatal(err)
		}
	}
	if err := rw.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	lsn := rw.LastLSN()
	if !ro.WaitVisible(lsn, 2*time.Second) {
		t.Fatal("RO lagging")
	}
	for src := 0; src < 20; src++ {
		deg, err := ro.Replica().Degree(graph.VertexID(src), graph.ETypeFollow)
		if err != nil || deg != 20 {
			t.Fatalf("degree(%d) = %d %v", src, deg, err)
		}
	}
}

func TestCheckpointHorizonNeverOverclaims(t *testing.T) {
	// Hammer writes while checkpointing concurrently; every checkpoint
	// must describe a state the RO can rely on (verified by the RO ending
	// fully consistent with zero buffered records after a final quiesced
	// checkpoint).
	rw, ro, _ := newPair(t, RWOptions{}, time.Millisecond)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				_ = rw.Checkpoint()
				time.Sleep(time.Millisecond)
			}
		}
	}()
	for i := 0; i < 500; i++ {
		if err := rw.AddEdge(graph.Edge{Src: graph.VertexID(i % 5), Dst: graph.VertexID(i), Type: graph.ETypeLike}); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	if err := rw.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if !waitCut(ro, rw.LastLSN(), 2*time.Second) {
		t.Fatal("RO lagging")
	}
	for src := 0; src < 5; src++ {
		deg, err := ro.Replica().Degree(graph.VertexID(src), graph.ETypeLike)
		if err != nil || deg != 100 {
			t.Fatalf("degree(%d) = %d %v, want 100", src, deg, err)
		}
	}
	if got := ro.Replica().BufferedRecords(); got != 0 {
		t.Fatalf("buffered records after final checkpoint = %d", got)
	}
}

func TestGroupCommitWindowBatches(t *testing.T) {
	// With a window, sequential single-writer commits still amortize: the
	// committer waits out the window, so records arriving within it share
	// one batch.
	st := storage.Open(nil)
	w := wal.NewWriter(st)
	l := wal.NewGroupCommitter(w, wal.GroupCommitterOptions{MaxDelay: 5 * time.Millisecond})
	defer l.Stop()

	var wg sync.WaitGroup
	const writers = 16
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := l.Log(&wal.Record{Type: wal.RecordPut}); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	batches, records := commitCounts(l)
	if records != writers {
		t.Fatalf("records = %d", records)
	}
	if batches != 1 {
		t.Fatalf("batches = %d, want 1 (all writers inside one window)", batches)
	}
}

func TestGroupCommitStopFailsPending(t *testing.T) {
	st := storage.Open(&storage.Options{WriteLatency: 50 * time.Millisecond})
	w := wal.NewWriter(st)
	l := wal.NewGroupCommitter(w, wal.GroupCommitterOptions{MaxDelay: 20 * time.Millisecond})

	errc := make(chan error, 1)
	go func() {
		_, err := l.Log(&wal.Record{Type: wal.RecordPut})
		errc <- err
	}()
	time.Sleep(time.Millisecond)
	l.Stop()
	select {
	case err := <-errc:
		// Either the record committed before Stop or it failed with the
		// shutdown error — it must not hang.
		if err != nil && err != wal.ErrCommitterStopped {
			t.Fatalf("unexpected error %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Log hung across Stop")
	}
	// Logging after Stop fails immediately.
	if _, err := l.Log(&wal.Record{Type: wal.RecordPut}); err == nil {
		t.Fatal("Log after Stop succeeded")
	}
}
