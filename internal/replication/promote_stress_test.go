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

// TestStressPromotionFencesConcurrentWriters races a promotion against 16
// writer goroutines that keep hammering the old leader (run under -race).
// The contract checked end to end:
//
//   - every write acknowledged by the old leader survives onto the promoted
//     leader — the fence cannot revoke an ack;
//   - every writer racing the fence observes an explicit error wrapping
//     storage.ErrFenced (first loser) or wal.ErrWriterFailed (after the
//     writer fail-stops) — never a silent drop, never a late ack;
//   - the one write per writer that the fence rejected is in-doubt, exactly
//     like a crash: its data record may have committed durably before a
//     structural record (a page split) hit the fence, so it may surface
//     with its own value — but nothing beyond that one op ever appears;
//   - the durable WAL stays a gapless LSN sequence across the epoch bump
//     with no zombie records for a reader to skip, and a follower replaying
//     the post-failover WAL from the promotion's snapshot reproduces
//     exactly the promoted leader's state plus the post-failover workload.
func TestStressPromotionFencesConcurrentWriters(t *testing.T) {
	const writers = 16

	st := storage.Open(&storage.Options{WriteLatency: 100 * time.Microsecond})
	defer st.Close()
	opts := RWOptions{
		Engine:       core.Options{Tree: bwtree.Config{MaxPageEntries: 32}},
		CommitWindow: 100 * time.Microsecond,
		MaxBatch:     32,
	}
	old, err := NewRWNode(st, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer old.Stop()
	if _, err := old.WriteSnapshot(); err != nil {
		t.Fatal(err)
	}

	edgeKey := func(src, dst graph.VertexID) string { return fmt.Sprintf("e|%d|%d", src, dst) }

	// Each writer owns src 100+w and dsts [0,64): its model slice is
	// race-free. Writers run until the fence rejects them — with no faults
	// injected, the only possible error is the promotion's fence.
	type writerResult struct {
		model      map[string][]byte // acked writes: must all survive
		inDoubt    string            // key of the op the fence rejected: maybe-semantics
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
			src := graph.VertexID(100 + w)
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

	// Let the writers build up state, then promote a follower over them.
	time.Sleep(5 * time.Millisecond)
	ro, err := NewRONode(st, time.Hour, 0)
	if err != nil {
		t.Fatal(err)
	}
	next, err := Promote(ro, opts)
	if err != nil {
		t.Fatalf("promote under write load: %v", err)
	}
	defer next.Stop()
	wg.Wait()

	if next.Epoch() != 1 {
		t.Fatalf("promoted epoch = %d, want 1", next.Epoch())
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
	t.Logf("fence cut off %d writers after %d acked writes", writers, acked)

	// Post-failover workload on the new leader: the log must keep growing
	// under the new epoch, on dsts disjoint from the racing writes.
	postModel := make(map[string][]byte)
	for w := 0; w < writers; w++ {
		src := graph.VertexID(100 + w)
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
	// in-doubt — absent, holding an earlier acked value, or holding its own
	// value (its data record beat the fence, a structural record did not).
	// Anything else visible is a phantom.
	engine := next.Engine()
	for w := range results {
		r := &results[w]
		src := graph.VertexID(100 + w)
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
				t.Fatalf("writer %d: acked write %q lost across promotion", w, k)
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
				continue // the in-doubt op landed; legal
			}
			t.Fatalf("writer %d: phantom edge %q = %x (never acked by anyone)", w, k, got)
		}
	}

	// The durable log: gapless LSNs across the epoch bump, zero zombie
	// records (the storage fence admits nothing stale — reader-side skipping
	// is pure defense in depth), and a group-by-group replay into a fresh
	// replica that matches the promoted leader exactly.
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
		t.Fatalf("WAL holds %d records but the promoted committer assigned up to LSN %d", lsn, last)
	}
	if reader.FencedSkips() != 0 {
		t.Fatalf("durable WAL contains %d zombie records; the storage fence leaked bytes", reader.FencedSkips())
	}
	if reader.Epoch() != 1 {
		t.Fatalf("log tail epoch = %d, want 1", reader.Epoch())
	}

	// The model-oracle replay: a follower bootstraps from the promotion's
	// snapshot (the same way every real RO node adopts a new leader) and
	// drains the post-failover WAL tail; its state must match the promoted
	// leader's exactly, for every writer's keyspace.
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
		src := graph.VertexID(100 + w)
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

// TestStressConcurrentPromotions races several promotion attempts over the
// same store (run under -race): every attempt either wins a unique epoch or
// fails with an error wrapping storage.ErrFenced, and afterwards exactly
// one leader — the highest epoch — can append.
func TestStressConcurrentPromotions(t *testing.T) {
	st := storage.Open(nil)
	defer st.Close()
	opts := RWOptions{Engine: core.Options{Tree: bwtree.Config{MaxPageEntries: 32}}}
	seed, err := NewRWNode(st, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := seed.WriteSnapshot(); err != nil {
		t.Fatal(err)
	}
	seed.Stop()

	const attempts = 4
	nodes := make([]*RWNode, attempts)
	errs := make([]error, attempts)
	var wg sync.WaitGroup
	for i := 0; i < attempts; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ro, err := NewRONode(st, time.Hour, 0)
			if err != nil {
				errs[i] = err
				return
			}
			nodes[i], errs[i] = Promote(ro, opts)
		}(i)
	}
	wg.Wait()

	// Each candidate holds a distinct epoch. The losers' engines are live
	// but fenced: their first append must fail explicitly. The candidate
	// holding the store's final epoch must still accept writes.
	final := st.StreamEpoch(storage.StreamWAL)
	winners := 0
	seen := make(map[uint64]bool)
	for i := 0; i < attempts; i++ {
		if errs[i] != nil {
			if !errors.Is(errs[i], storage.ErrFenced) {
				t.Fatalf("attempt %d failed oddly: %v", i, errs[i])
			}
			continue
		}
		n := nodes[i]
		defer n.Stop()
		if seen[n.Epoch()] {
			t.Fatalf("two promotions claim epoch %d", n.Epoch())
		}
		seen[n.Epoch()] = true
		werr := n.AddEdge(graph.Edge{Src: 1, Dst: graph.VertexID(i), Type: graph.ETypeFollow})
		if n.Epoch() == final {
			winners++
			if werr != nil {
				t.Fatalf("final-epoch leader cannot write: %v", werr)
			}
		} else if werr == nil {
			t.Fatalf("deposed candidate at epoch %d (final %d) still appends", n.Epoch(), final)
		} else if !errors.Is(werr, storage.ErrFenced) && !errors.Is(werr, wal.ErrWriterFailed) {
			t.Fatalf("deposed candidate failed oddly: %v", werr)
		}
	}
	if winners != 1 {
		t.Fatalf("%d candidates can append; exactly one epoch may write", winners)
	}
}
