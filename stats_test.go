package bg3

import (
	"encoding/json"
	"maps"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"bg3/internal/metrics"
	"bg3/internal/storage"
)

// TestStatsIsTheRegistry: every Stats field is the reading of the instrument
// its metric tag names, summed or merged over Metrics and every leader's
// registry, on a bare engine, a one-shard leader and four shards — after
// single writes and cross-shard batches that ran beside Stats readers, GC, a
// failover and an attached replica.
func TestStatsIsTheRegistry(t *testing.T) {
	for _, shape := range []struct {
		name string
		o    Options
	}{
		{"bare", Options{}},
		{"leader", Options{Replicated: true}},
		{"shards-4", Options{Shards: 4}},
	} {
		t.Run(shape.name, func(t *testing.T) {
			o := shape.o
			o.ExtentSize, o.CacheCapacity, o.ForestSplitThreshold = 4<<10, 16, 10
			o.EdgeBlockThreshold = -1
			// A small cache, so reads miss. Nothing runs in the background (no
			// flusher, no block builds, a replica that applies only at Sync),
			// so the registries hold still once the writers stop.
			db := openLayers(t, o, func(cfg *layers) {
				cfg.rw.FlushInterval = 0
				cfg.followerPoll = time.Hour
			})
			replicated := db.group != nil
			var rep *Replica
			if replicated {
				var err error
				if rep, err = db.OpenReplica(); err != nil {
					t.Fatal(err)
				}
			}
			write := func(round int) {
				t.Helper()
				var wg sync.WaitGroup
				for w := range 3 {
					wg.Add(1)
					go func() {
						defer wg.Done()
						for i := range 120 {
							e := Edge{Src: VertexID(1 + w), Dst: VertexID(round*1000 + i%40), Type: ETypeLike}
							if err := db.AddEdge(e); err != nil {
								t.Error(err)
								return
							}
							if i%8 == 0 { // over four sources: several shards on four
								var muts []Mutation
								for s := range 4 {
									muts = append(muts, AddEdgeMut(Edge{Src: VertexID(11 + s), Dst: VertexID(i), Type: ETypeFollow}))
								}
								if err := db.ApplyBatch(muts); err != nil {
									t.Error(err)
									return
								}
							}
						}
					}()
				}
				stop := make(chan struct{})
				read := make(chan struct{})
				go func() {
					defer close(read)
					for {
						select {
						case <-stop:
							return
						default:
							_ = db.Stats()
						}
					}
				}()
				wg.Wait()
				close(stop)
				<-read
				if t.Failed() {
					t.FailNow()
				}
			}
			write(0)
			if replicated {
				if err := db.Failover(db.Shards() - 1); err != nil {
					t.Fatal(err)
				}
			}
			snap := db.Snapshot() // held across the writes below: an epoch lag
			defer snap.Close()
			for range 2 { // the second round overwrites: garbage for GC
				write(1)
				if err := db.Checkpoint(); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := db.RunGC(8); err != nil {
				t.Fatal(err)
			}
			for src := range VertexID(4) {
				if err := db.Neighbors(1+src, ETypeLike, 0, func(VertexID, Properties) bool { return true }); err != nil {
					t.Fatal(err)
				}
			}
			if replicated {
				if err := rep.Sync(); err != nil {
					t.Fatal(err)
				}
			}

			s := db.Stats()
			checkStatsIsTheRegistry(t, db, s)

			// The workload moved what each shape has.
			moved := map[string]int64{
				"Storage.WriteOps": s.Storage.WriteOps, "Cache.ReadFanout": s.Cache.ReadFanout.Count,
				"Forest.Trees": int64(s.Forest.Trees), "GC.Runs": s.GC.Runs,
			}
			if replicated {
				maps.Copy(moved, map[string]int64{
					"WAL.CommitBatches": s.WAL.CommitBatches, "WAL.AppendLatency": s.WAL.AppendLatency.Count,
					"WAL.Checkpoints": s.WAL.Checkpoints, "Replication.Replicas": int64(s.Replication.Replicas),
					"Replication.Failovers": s.Replication.Failovers, "Storage.FaultRecoveries": s.Storage.FaultRecoveries,
					"Shards.BatchesRouted": s.Shards.BatchesRouted, "MVCC.EpochLag": int64(s.MVCC.EpochLag),
				})
			}
			if db.Shards() > 1 {
				moved["Shards.TxnCommits"] = s.Shards.TxnCommits
			}
			for field, n := range moved {
				if n == 0 {
					t.Errorf("%s = 0 after the workload", field)
				}
			}
			if buf, err := json.Marshal(s); err != nil || !strings.Contains(string(buf), `"commit_latency":{"count":`) {
				t.Fatalf("Stats JSON: %v\n%s", err, buf)
			}
		})
	}
}

// TestBytesWrittenPerStream: on every shape, after writes, a checkpoint and a
// GC run, the bytes written to the base, delta and WAL streams sum to
// Storage.BytesWritten; a bare engine writes no WAL bytes, a leader does.
func TestBytesWrittenPerStream(t *testing.T) {
	for _, shape := range []struct {
		name string
		o    Options
	}{
		{"bare", Options{}},
		{"leader", Options{Replicated: true}},
		{"shards-4", Options{Shards: 4}},
	} {
		t.Run(shape.name, func(t *testing.T) {
			o := shape.o
			o.ExtentSize, o.MaxPageEntries = 1<<10, 16
			db := openLayers(t, o, func(cfg *layers) { cfg.rw.FlushInterval = 0 })
			for round := range 2 { // the second round overwrites: garbage for GC
				for i := range 400 {
					e := Edge{Src: VertexID(1 + i%8), Dst: VertexID(i), Type: ETypeLike,
						Props: Properties{{Name: "round", Value: []byte{byte(round)}}}}
					if err := db.AddEdge(e); err != nil {
						t.Fatal(err)
					}
				}
				if err := db.Checkpoint(); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := db.RunGC(8); err != nil {
				t.Fatal(err)
			}
			s := db.Stats()
			st := s.Storage
			if sum := st.BytesWrittenBase + st.BytesWrittenDelta + st.BytesWrittenWAL; sum != st.BytesWritten {
				t.Fatalf("base %d + delta %d + WAL %d = %d bytes, BytesWritten %d",
					st.BytesWrittenBase, st.BytesWrittenDelta, st.BytesWrittenWAL, sum, st.BytesWritten)
			}
			if st.BytesWrittenBase == 0 || st.BytesWrittenDelta == 0 || s.GC.BytesMoved == 0 {
				t.Fatalf("base %d, delta %d bytes written, GC moved %d: want all three moved",
					st.BytesWrittenBase, st.BytesWrittenDelta, s.GC.BytesMoved)
			}
			if replicated := db.group != nil; replicated != (st.BytesWrittenWAL > 0) {
				t.Fatalf("replicated = %v, WAL bytes written %d", replicated, st.BytesWrittenWAL)
			}
		})
	}
}

// checkStatsIsTheRegistry compares every tagged field of s with the
// registries read one by one: a sum (a histogram's count and maximum) over
// all of them, the largest per-shard reading, or one per shard. It checks the
// derived fields against the subsystems' own accounting.
func checkStatsIsTheRegistry(t *testing.T, db *DB, s Stats) {
	t.Helper()
	var all, shards []metrics.Snapshot
	for _, r := range db.registries() {
		all = append(all, r.Snapshot())
	}
	for i := range db.Shards() {
		shards = append(shards, db.shardMetrics(i).Snapshot())
	}
	var walk func(v reflect.Value, path string)
	walk = func(v reflect.Value, path string) {
		for i := range v.NumField() {
			f, sf := v.Field(i), v.Type().Field(i)
			field := path + sf.Name
			name, how, _ := strings.Cut(sf.Tag.Get("metric"), ",")
			if name == "" {
				if f.Kind() == reflect.Struct {
					walk(f, field+".")
				}
				continue
			}
			// Every name is registered on a leader; a bare engine has no WAL,
			// epoch clock, replicas or router.
			if db.group != nil && !slices.ContainsFunc(all, func(sn metrics.Snapshot) bool { _, ok := sn[name]; return ok }) {
				t.Errorf("%s reads %s, which no registry has", field, name)
			}
			switch got := f.Interface().(type) {
			case []uint64:
				want := make([]uint64, len(shards))
				for j, sh := range shards {
					want[j] = uint64(sh[name].Value)
				}
				if !slices.Equal(got, want) {
					t.Errorf("%s = %v, %s per shard %v", field, got, name, want)
				}
			case HistogramStats:
				var n, most int64
				for _, sn := range all {
					if h := sn[name].Histogram; h != nil {
						n, most = n+h.Count, max(most, h.MaxUS)
					}
				}
				if got.Count != n || got.MaxUS != most {
					t.Errorf("%s = %+v, %s count %d max %d", field, got, name, n, most)
				}
			case FanoutStats:
				var n, most int64
				for _, sn := range all {
					if h := sn[name].IntHistogram; h != nil {
						n, most = n+h.Count, max(most, h.Max)
					}
				}
				if got.Count != n || got.Max != most {
					t.Errorf("%s = %+v, %s count %d max %d", field, got, name, n, most)
				}
			default:
				var want int64
				if how == "max" {
					for _, sh := range shards {
						want = max(want, sh[name].Value)
					}
				} else {
					for _, sn := range all {
						want += sn[name].Value
					}
				}
				if n := reflect.ValueOf(want).Convert(f.Type()); !f.Equal(n) {
					t.Errorf("%s = %v, %s %d", field, f, name, want)
				}
			}
		}
	}
	walk(reflect.ValueOf(s), "")

	if want := ratio(s.Cache.Hits, s.Cache.Hits+s.Cache.Misses); s.Cache.HitRatio != want {
		t.Errorf("Cache.HitRatio = %v, want %v", s.Cache.HitRatio, want)
	}
	if want := ratio(s.GC.BytesMoved, s.GC.BytesReclaimed); s.GC.WriteAmp != want {
		t.Errorf("GC.WriteAmp = %v, want %v", s.GC.WriteAmp, want)
	}
	if s.Shards.Count != db.Shards() || s.GC.BlockPinned != 0 {
		t.Errorf("Shards.Count = %d of %d, GC.BlockPinned = %d", s.Shards.Count, db.Shards(), s.GC.BlockPinned)
	}
	var fanout float64
	if h := all[0]["shard.batch_fanout"].IntHistogram; h != nil {
		fanout = h.Mean
	}
	if s.Shards.BatchFanoutMean != fanout {
		t.Errorf("Shards.BatchFanoutMean = %v, shard.batch_fanout mean %v", s.Shards.BatchFanoutMean, fanout)
	}

	// The same numbers as the subsystems keep them.
	var own Stats
	for i := range db.Shards() {
		e := db.eng(i)
		ss := e.Store().Stats()
		own.Storage.ReadOps += ss.ReadOps
		own.Storage.WriteOps += ss.WriteOps
		own.Storage.LiveBytes += ss.LiveBytes
		own.GC.BytesMoved += ss.GCBytesMoved
		own.GC.ExtentsReclaimed += ss.ExtentsReclaimed
		own.GC.Runs += e.GCStats().Runs
		own.Forest.Trees += e.Forest().Stats().Trees
		own.EdgeBlocks.Builds += e.Mapping().BlockStatsSnapshot().Builds
		own.Shards.Epochs = append(own.Shards.Epochs, db.Epoch(i))
		own.Shards.ReadEpochs = append(own.Shards.ReadEpochs, 0)
		own.Shards.LastLSNs = append(own.Shards.LastLSNs, 0)
		if rw := db.leader(i); rw != nil {
			es := e.Epochs().Stats()
			own.MVCC.PinsTotal += es.PinsTotal
			own.MVCC.EpochLag = max(own.MVCC.EpochLag, es.Lag)
			own.Shards.ReadEpochs[i] = uint64(es.Current)
			own.Shards.LastLSNs[i] = uint64(rw.LastLSN())
			own.Replication.Replicas = len(db.attached())
		}
	}
	own.Replication.Failovers = db.Failovers()
	for _, c := range []struct {
		field     string
		got, want any
	}{
		{"Storage.ReadOps", s.Storage.ReadOps, own.Storage.ReadOps},
		{"Storage.WriteOps", s.Storage.WriteOps, own.Storage.WriteOps},
		{"Storage.LiveBytes", s.Storage.LiveBytes, own.Storage.LiveBytes},
		{"GC.BytesMoved", s.GC.BytesMoved, own.GC.BytesMoved},
		{"GC.ExtentsReclaimed", s.GC.ExtentsReclaimed, own.GC.ExtentsReclaimed},
		{"GC.Runs", s.GC.Runs, own.GC.Runs},
		{"Forest.Trees", s.Forest.Trees, own.Forest.Trees},
		{"EdgeBlocks.Builds", s.EdgeBlocks.Builds, own.EdgeBlocks.Builds},
		{"MVCC.PinsTotal", s.MVCC.PinsTotal, own.MVCC.PinsTotal},
		{"Replication.Failovers", s.Replication.Failovers, own.Replication.Failovers},
		{"Shards.Epochs", s.Shards.Epochs, own.Shards.Epochs},
		{"Shards.ReadEpochs", s.Shards.ReadEpochs, own.Shards.ReadEpochs},
		{"Shards.LastLSNs", s.Shards.LastLSNs, own.Shards.LastLSNs},
		{"MVCC.EpochLag", s.MVCC.EpochLag, own.MVCC.EpochLag},
		{"Replication.Replicas", s.Replication.Replicas, own.Replication.Replicas},
	} {
		if !reflect.DeepEqual(c.got, c.want) {
			t.Errorf("%s = %v, the subsystems count %v", c.field, c.got, c.want)
		}
	}
}

// TestFaultCountersArePerDB: a DB counts the faults its own storage fault
// plan injected and the retries its own appends spent absorbing them; a
// second DB in the same process counts none of either.
func TestFaultCountersArePerDB(t *testing.T) {
	plan := storage.NewFaultPlan(storage.FaultConfig{Seed: 7, AppendFailProb: 0.1})
	o := Options{Replicated: true}
	faulty := openLayers(t, o, func(cfg *layers) { cfg.storage.Faults = plan; cfg.rw.FlushInterval = 0 })
	clean := openLayers(t, o, func(cfg *layers) { cfg.rw.FlushInterval = 0 })
	for i := range 200 {
		for _, db := range []*DB{faulty, clean} {
			if err := db.AddEdge(Edge{Src: 1, Dst: VertexID(i), Type: ETypeLike}); err != nil {
				t.Fatal(err)
			}
			if i%50 == 49 {
				if err := db.Checkpoint(); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	f, c := faulty.Stats().Storage, clean.Stats().Storage
	if want := plan.Stats().Total(); want == 0 || f.FaultsInjected != want {
		t.Errorf("faulty DB: FaultsInjected = %d, its plan injected %d", f.FaultsInjected, want)
	}
	if f.FaultRetries == 0 || f.FaultRetries > f.FaultsInjected {
		t.Errorf("faulty DB: FaultRetries = %d, want 1..%d", f.FaultRetries, f.FaultsInjected)
	}
	if c.FaultsInjected != 0 || c.FaultRetries != 0 || c.FaultRecoveries != 0 {
		t.Errorf("clean DB counts another DB's faults: %+v", c)
	}
}
