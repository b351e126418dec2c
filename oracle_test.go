package bg3

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"sync"
	"testing"
	"time"

	"bg3/internal/graph"
	"bg3/internal/pattern"
	"bg3/internal/replication"
	"bg3/internal/shard"
	"bg3/internal/storage"
	"bg3/internal/wal"
)

// The oracle. One seeded op stream runs through Open against a real DB and a
// trivially correct reference graph (ref), on every shape — a bare engine, a
// replicated leader, four shards — and after every step the invariants the
// system claims are checked through every reader: the DB, the Snapshots the
// stream holds open, its Replicas. There are two sources of truth:
//
//   - the stream's truth (truth): what the outcomes of the ops say. An
//     acknowledged write is certain; a failed one leaves maybe-state, which
//     the next acknowledged op of the same key clears.
//   - the log's truth (shardLog): each shard's WAL, read by a wal.Reader of
//     the oracle's own and replayed group by group into every version each
//     key had, so the state at any group boundary is at hand. A bare engine
//     has no log, and only the stream's truth applies to it.
//
// A failure names the check that caught it:
//
//	latest       the DB's reads agree with the stream's truth: no acknowledged
//	             write is lost, and nothing appears that was never written.
//	log-acked    the log's latest state agrees with the stream's truth.
//	log-known   every put the log holds carries a tag the stream wrote.
//	zombie       a write on a deposed leader fails fenced and no trace of it
//	             is ever in the log or read.
//	snapshot     an open Snapshot reads exactly the log's state at Epochs();
//	             every component is a group boundary of its own shard, so the
//	             cut is a union of per-shard prefixes.
//	replica      a Replica reads exactly the log's state at AppliedLSN(i);
//	             after Sync that is the end of every shard's log.
//	all-or-none  a batch over several shards is wholly in a Snapshot's cut and
//	             in the log, or not at all, also under concurrent writers.
//	traversal    KHop, MatchPattern and FindCycles on each reader return what
//	             the same functions return on ref at that reader's state.
//	scatter      a KHop moves shard.scatter_hops by one per hop and
//	             shard.scatter_shard_reads by the shards each hop touched.
//	condemned    after a Checkpoint and a Sync of every replica, with no
//	             Snapshot open, no extent GC condemned is still held.
//	trim         a WriteSnapshot with no transaction open trims the WAL
//	             before it.
//	epoch        a failover costs one fence epoch, and one more exactly when
//	             the log it drained ended in debris of a failed pipelined
//	             commit (durable groups past a hole, never acknowledged).
//
// The concurrent leg (oracleConcurrent) runs writers, pinned readers and a
// checkpoint/GC/block-build loop together, racing failovers, and checks what
// the readers saw against the log's truth alone.

const (
	oracleOwners = 16 // vertices 1..16 own edges and a vertex record
	oracleHot    = 2  // owners 1..2 take most writes: they migrate and pack
	tagProp      = "v"
)

var oracleTypes = []EdgeType{ETypeFollow, ETypeLike}

// oracleOptions makes pages, caches and extents small, so that splits,
// evictions, migrations, blocks and GC all happen within a few hundred ops,
// and moves no flush or poll unless the stream says so. A promoted leader
// counts an INIT owner's edges from zero, so between failovers owners
// migrate mostly because INIT outgrows its cap.
func oracleOptions(shape string) Options {
	o := Options{
		MaxPageEntries: 16, CacheCapacity: 4, ReplicaCacheCapacity: 4, ExtentSize: 8 << 10,
		ForestSplitThreshold: 32, ForestInitSizeThreshold: 24, EdgeBlockThreshold: 64,
		FlushInterval: time.Hour, ReplicaPollInterval: time.Hour,
	}
	switch shape {
	case "replicated":
		o.Replicated = true
	case "4-shard":
		o.Shards = 4
	}
	if o.Replicated || o.Shards > 1 {
		// A batch's groups overlap in flight, so a crash can leave debris.
		o.CommitPipelineDepth, o.CommitMaxBatch = 4, 4
	}
	return o
}

func TestOracle(t *testing.T) {
	// Besides 1-4, seeds that found a defect: 8 (a promoted leader's GC
	// dropped records its pages read), 13 and 41 (debris past a trimmed WAL
	// prefix passed for live records), 57 (a handed-over root was evicted
	// before it was filed dirty).
	seeds, steps := []int64{1, 2, 3, 4, 8, 13, 41, 57}, 400
	if testing.Short() {
		seeds, steps = seeds[:1], 150
	}
	for _, shape := range []string{"bare", "replicated", "4-shard"} {
		for _, seed := range seeds {
			t.Run(fmt.Sprintf("%s/seed=%d", shape, seed), func(t *testing.T) {
				newOracleRun(t, shape, seed).run(steps)
			})
		}
	}
	for _, shape := range []string{"replicated", "4-shard"} {
		t.Run("concurrent/"+shape, func(t *testing.T) { oracleConcurrent(t, shape) })
	}
}

// okey addresses one record of the graph: an edge in its source's keyspace
// (key graph.EdgeKey) or a vertex (key: the reserved edge type, then the
// vertex type — the engine's layout).
type okey struct {
	owner VertexID
	key   string
}

func edgeKey(src VertexID, typ EdgeType, dst VertexID) okey {
	return okey{src, string(graph.EdgeKey(typ, dst))}
}

func vertexKey(id VertexID, typ VertexType) okey {
	return okey{id, string(binary.BigEndian.AppendUint16([]byte{0xff, 0xff}, uint16(typ)))}
}

func (k okey) String() string {
	if typ, dst, err := graph.DecodeEdgeKey([]byte(k.key)); err == nil {
		return fmt.Sprintf("%d-[%d]->%d", k.owner, typ, dst)
	}
	return fmt.Sprintf("vertex %d", k.owner)
}

// Every write carries a tag of its own as its one property, so a value read
// back names the op that wrote it.
func tagged(tag string) Properties { return Properties{{Name: tagProp, Value: []byte(tag)}} }

func tagOf(ps Properties) string { v, _ := ps.Get(tagProp); return string(v) }

// maybeState is what failed ops leave on a key. A write that was never
// acknowledged may be present (the engine applies memory before the WAL wait
// resolves, and a later checkpoint can make that durable) or absent.
type maybeState struct {
	tags   map[string]bool // tags a failed put may have left
	absent bool            // a failed delete may have removed the key
}

// truth is the stream's truth: the last acknowledged tag per key, plus the
// residue of failed ops, which the next acknowledged op of the key clears —
// its LSN orders it after every earlier attempt, in replay and in memory.
type truth struct {
	acked map[okey]string
	maybe map[okey]*maybeState
}

func newTruth() *truth {
	return &truth{acked: map[okey]string{}, maybe: map[okey]*maybeState{}}
}

func (o *truth) ackPut(k okey, tag string) { o.acked[k] = tag; delete(o.maybe, k) }

func (o *truth) ackDelete(k okey) { delete(o.acked, k); delete(o.maybe, k) }

func (o *truth) maybeOf(k okey) *maybeState {
	ms := o.maybe[k]
	if ms == nil {
		ms = &maybeState{tags: map[string]bool{}}
		o.maybe[k] = ms
	}
	return ms
}

func (o *truth) failPut(k okey, tag string) { o.maybeOf(k).tags[tag] = true }

func (o *truth) failDelete(k okey) { o.maybeOf(k).absent = true }

// check validates one observation of k: with no residue it must be the
// acknowledged state exactly; with residue, any state some subset of the
// failed ops explains.
func (o *truth) check(k okey, got string, found bool) error {
	want, acked := o.acked[k]
	ms := o.maybe[k]
	switch {
	case found && acked && got == want:
		return nil
	case found && ms != nil && ms.tags[got]:
		return nil
	case !found && (!acked || (ms != nil && ms.absent)):
		return nil
	case !found:
		return fmt.Errorf("%v: acknowledged write %q lost", k, want)
	case acked:
		return fmt.Errorf("%v: read %q, acknowledged %q", k, got, want)
	}
	return fmt.Errorf("%v: phantom %q (never written, or deleted by an acknowledged op)", k, got)
}

// mustHave reports whether k must be present: acknowledged, and no failed
// delete hangs over it.
func (o *truth) mustHave(k okey) bool {
	_, acked := o.acked[k]
	return acked && (o.maybe[k] == nil || !o.maybe[k].absent)
}

// agrees checks a whole graph against the stream's truth.
func (o *truth) agrees(got ref) error {
	for owner, m := range got {
		for key, tag := range m {
			if err := o.check(okey{owner, key}, tag, true); err != nil {
				return err
			}
		}
	}
	for k := range o.acked {
		if _, ok := got[k.owner][k.key]; !ok && o.mustHave(k) {
			return o.check(k, "", false)
		}
	}
	return nil
}

// ref is the reference graph, owner → in-owner key → tag. It implements
// graph.Reader, so graph.KHop, pattern.Match and pattern.FindCycles run on it
// unchanged.
type ref map[VertexID]map[string]string

func (r ref) put(k okey, tag string) {
	if r[k.owner] == nil {
		r[k.owner] = map[string]string{}
	}
	r[k.owner][k.key] = tag
}

func (r ref) GetVertex(id VertexID, typ VertexType) (Vertex, bool, error) {
	tag, ok := r[id][vertexKey(id, typ).key]
	if !ok {
		return Vertex{}, false, nil
	}
	return Vertex{ID: id, Type: typ, Props: tagged(tag)}, true, nil
}

func (r ref) GetEdge(src VertexID, typ EdgeType, dst VertexID) (Edge, bool, error) {
	tag, ok := r[src][edgeKey(src, typ, dst).key]
	if !ok {
		return Edge{}, false, nil
	}
	return Edge{Src: src, Dst: dst, Type: typ, Props: tagged(tag)}, true, nil
}

func (r ref) Neighbors(src VertexID, typ EdgeType, limit int, fn func(VertexID, Properties) bool) error {
	prefix := edgeKey(src, typ, 0).key[:2]
	var keys []string
	for k := range r[src] {
		if len(k) == 10 && k[:2] == prefix {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	for i, k := range keys {
		_, dst, _ := graph.DecodeEdgeKey([]byte(k))
		if (limit > 0 && i >= limit) || !fn(dst, tagged(r[src][k])) {
			break
		}
	}
	return nil
}

func (r ref) Degree(src VertexID, typ EdgeType) (int, error) {
	n := 0
	err := r.Neighbors(src, typ, 0, func(VertexID, Properties) bool { n++; return true })
	return n, err
}

// observe reads every record of owners through r: each one's vertex and its
// adjacency of every edge type.
func observe(r graph.Reader, owners []VertexID, types []EdgeType) (ref, error) {
	got := ref{}
	for _, o := range owners {
		if v, ok, err := r.GetVertex(o, VTypeUser); err != nil {
			return nil, fmt.Errorf("vertex %d: %w", o, err)
		} else if ok {
			got.put(vertexKey(o, VTypeUser), tagOf(v.Props))
		}
		for _, typ := range types {
			if err := r.Neighbors(o, typ, 0, func(dst VertexID, ps Properties) bool {
				got.put(edgeKey(o, typ, dst), tagOf(ps))
				return true
			}); err != nil {
				return nil, fmt.Errorf("neighbors %d/%d: %w", o, typ, err)
			}
		}
	}
	return got, nil
}

// diff returns the first record got and want disagree on.
func diff(got, want ref) error {
	for owner, m := range want {
		for key, tag := range m {
			if g, ok := got[owner][key]; !ok || g != tag {
				return fmt.Errorf("%v: read %q (present %v), want %q", okey{owner, key}, g, ok, tag)
			}
		}
	}
	for owner, m := range got {
		for key, tag := range m {
			if _, ok := want[owner][key]; !ok {
				return fmt.Errorf("%v: read %q, want absent", okey{owner, key}, tag)
			}
		}
	}
	return nil
}

// version is one write of a key as the log holds it.
type version struct {
	lsn wal.LSN
	tag string
	del bool
}

// shardLog is one shard's log's truth: a reader of the shard's WAL, polled
// after every step — before any flush cycle can trim past it — and every
// version of every key it delivered, so the state at any group boundary is a
// lookup. One decoder reads what replay has to: INIT records (owner-prefixed
// keys), dedicated-tree records (owner from the owner-assignment record that
// follows a migration's copies) and the assignments themselves, which decide
// the tree an owner is read from at each horizon.
type shardLog struct {
	rd   *wal.Reader
	last wal.LSN
	ends map[wal.LSN]bool // group boundaries delivered, and 0

	init, ded map[okey][]version
	orphans   map[uint64][]orphan  // dedicated-tree records before their assignment
	owner     map[uint64]VertexID  // dedicated tree → owner
	since     map[VertexID]wal.LSN // owner → its assignment's LSN
	first     map[string]wal.LSN   // tag → LSN of the first put carrying it

	// seen gates polls: what the shard's leader had assigned at the last one.
	leader *replication.RWNode
	seen   wal.LSN
}

// orphan is a dedicated-tree key's version whose owner is not known yet.
type orphan struct {
	key string
	v   version
}

func newShardLog(st *storage.Store) *shardLog {
	return &shardLog{
		rd: wal.NewReader(st), ends: map[wal.LSN]bool{0: true},
		init: map[okey][]version{}, ded: map[okey][]version{}, orphans: map[uint64][]orphan{},
		owner: map[uint64]VertexID{}, since: map[VertexID]wal.LSN{}, first: map[string]wal.LSN{},
	}
}

// poll replays what the log delivered since the last poll and returns the
// tags of the puts in it.
func (l *shardLog) poll() ([]string, error) {
	groups, err := l.rd.PollGroups()
	var tags []string
	for _, g := range groups {
		for _, rec := range g {
			tag, derr := l.apply(rec)
			if derr != nil {
				return nil, fmt.Errorf("lsn %d: %w", rec.LSN, derr)
			}
			if tag != "" {
				tags = append(tags, tag)
			}
		}
		l.last = g[len(g)-1].LSN
		l.ends[l.last] = true
	}
	return tags, err
}

func (l *shardLog) apply(rec *wal.Record) (string, error) {
	switch rec.Type {
	case wal.RecordOwnerAssign:
		o := VertexID(binary.BigEndian.Uint64(rec.Key))
		l.owner[rec.TreeID], l.since[o] = o, rec.LSN
		for _, p := range l.orphans[rec.TreeID] {
			l.ded[okey{o, p.key}] = append(l.ded[okey{o, p.key}], p.v)
		}
		delete(l.orphans, rec.TreeID)
		return "", nil
	case wal.RecordPut, wal.RecordDelete:
	default:
		return "", nil
	}
	v := version{lsn: rec.LSN, del: rec.Type == wal.RecordDelete}
	if !v.del {
		ps, err := graph.DecodeProps(rec.Value)
		if err != nil {
			return "", err
		}
		if v.tag = tagOf(ps); v.tag == "" {
			return "", fmt.Errorf("put without a tag")
		}
		if _, ok := l.first[v.tag]; !ok {
			l.first[v.tag] = rec.LSN
		}
	}
	switch len(rec.Key) {
	case 18, 12: // INIT: owner[8], then the in-owner key
		k := okey{VertexID(binary.BigEndian.Uint64(rec.Key)), string(rec.Key[8:])}
		l.init[k] = append(l.init[k], v)
	case 10, 4: // a dedicated tree's
		if o, ok := l.owner[rec.TreeID]; ok {
			l.ded[okey{o, string(rec.Key)}] = append(l.ded[okey{o, string(rec.Key)}], v)
		} else {
			l.orphans[rec.TreeID] = append(l.orphans[rec.TreeID], orphan{string(rec.Key), v})
		}
	default:
		return "", fmt.Errorf("key of %d bytes", len(rec.Key))
	}
	return v.tag, nil
}

// into adds the shard's state at boundary h to r: an owner reads INIT below
// its assignment and its dedicated tree from it on (forest.treeAt).
func (l *shardLog) into(r ref, h wal.LSN) error {
	if h > l.last || !l.ends[h] {
		return fmt.Errorf("epoch %d is not a group boundary of the log (delivered to %d)", h, l.last)
	}
	add := func(k okey, vs []version) {
		for i := len(vs) - 1; i >= 0; i-- {
			if vs[i].lsn <= h {
				if !vs[i].del {
					r.put(k, vs[i].tag)
				}
				return
			}
		}
	}
	for k, vs := range l.init {
		if s, ok := l.since[k.owner]; !ok || h < s {
			add(k, vs)
		}
	}
	for k, vs := range l.ded {
		if h >= l.since[k.owner] {
			add(k, vs)
		}
	}
	return nil
}

// logsOf opens one shardLog per shard of db; nil on a bare engine.
func logsOf(db *DB) []*shardLog {
	if db.group == nil {
		return nil
	}
	logs := make([]*shardLog, db.Shards())
	for i := range logs {
		logs[i] = newShardLog(db.group.Store(i))
	}
	return logs
}

// stateAt is the union of every shard's state at its component of vec.
func stateAt(logs []*shardLog, vec []uint64) (ref, error) {
	r := ref{}
	for i, l := range logs {
		if err := l.into(r, wal.LSN(vec[i])); err != nil {
			return nil, fmt.Errorf("shard %d: %w", i, err)
		}
	}
	return r, nil
}

// multiShard is the tags of one batch's puts over several shards, and the
// shard each lands on.
type multiShard struct {
	tags   []string
	shards []int
}

// allOrNone checks that every batch in bs is wholly in the cut vec or not in
// it at all.
func allOrNone(logs []*shardLog, bs []multiShard, vec []uint64) error {
	for _, b := range bs {
		in := 0
		for j, tag := range b.tags {
			if at, ok := logs[b.shards[j]].first[tag]; ok && uint64(at) <= vec[b.shards[j]] {
				in++
			}
		}
		if in != 0 && in != len(b.tags) {
			return fmt.Errorf("%d of the %d puts of batch %v over shards %v in the cut %v", in, len(b.tags), b.tags, b.shards, vec)
		}
	}
	return nil
}

// hopCount counts what a KHop costs the router: one scatter per hop, one
// shard read per shard the hop's frontier touches.
type hopCount struct {
	graph.Reader
	router          *shard.Router
	scatters, reads int64
}

func (h *hopCount) NeighborsMany(srcs []VertexID, typ EdgeType, limit int, fn func(src, dst VertexID) bool) error {
	h.scatters++
	for _, part := range h.router.SplitFrontier(srcs) {
		if len(part) > 0 {
			h.reads++
		}
	}
	return graph.NeighborsEach(h.Reader, srcs, typ, limit, fn)
}

// traverser is what every root reader offers beside graph.Reader.
type traverser interface {
	graph.Reader
	KHop(start VertexID, typ EdgeType, hops, perVertexLimit int) (map[VertexID]struct{}, error)
	MatchPattern(p Pattern, seeds []VertexID, maxMatches int) ([][]VertexID, error)
	FindCycles(start VertexID, typ EdgeType, maxLen, maxCycles int) ([][]VertexID, error)
}

// mut is one mutation as the stream accounts for it.
type mut struct {
	k   okey
	tag string
	del bool
}

// oracleRun is one seeded op stream against one DB.
type oracleRun struct {
	t     *testing.T
	shape string
	seed  int64
	rng   *rand.Rand
	db    *DB
	plan  *storage.FaultPlan // nil on a bare engine

	truth   *truth
	logs    []*shardLog
	tags    map[string]bool // every tag the stream wrote
	zombies map[string]bool
	txns    []multiShard

	snaps   []*Snapshot
	reps    []*Replica
	owners  []VertexID
	edges   []okey // every edge a put was sent for
	step    int
	touched []okey // keys the step wrote

	acked, failed, failovers, debris int
}

func newOracleRun(t *testing.T, shape string, seed int64) *oracleRun {
	o := oracleOptions(shape)
	cfg := o.layers()
	r := &oracleRun{t: t, shape: shape, seed: seed, rng: rand.New(rand.NewSource(seed)),
		truth: newTruth(), tags: map[string]bool{}, zombies: map[string]bool{}}
	if o.Replicated || o.Shards > 1 {
		r.plan = storage.NewFaultPlan(storage.FaultConfig{Seed: seed * 7919, AppendFailProb: 0.02, TornWriteProb: 0.005})
		r.plan.SetEnabled(false) // quiet while the leaders bootstrap
		cfg.storage.Faults = r.plan
	}
	db, err := open(o, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		for _, s := range r.snaps {
			s.Close()
		}
		db.Close()
	})
	r.db, r.logs = db, logsOf(db)
	for v := VertexID(1); v <= oracleOwners; v++ {
		r.owners = append(r.owners, v)
	}
	if r.plan != nil {
		r.plan.SetEnabled(true)
	}
	return r
}

func (r *oracleRun) fatalf(check, format string, args ...any) {
	r.t.Helper()
	r.t.Fatalf("%s seed %d step %d: %s: %s", r.shape, r.seed, r.step, check, fmt.Sprintf(format, args...))
}

func (r *oracleRun) run(steps int) {
	if r.db.group == nil {
		if _, err := r.db.OpenReplica(); !errors.Is(err, ErrNotReplicated) {
			r.fatalf("latest", "OpenReplica on a bare engine: %v", err)
		}
	}
	for r.step = 0; r.step < steps; r.step++ {
		r.touched = r.touched[:0]
		r.op()
		r.settle()
		r.check()
	}
	for _, s := range r.snaps {
		s.Close()
	}
	r.snaps = nil
	r.checkpoint()
	st := r.db.Stats()
	migrated := st.Forest.Migrations
	for _, l := range r.logs {
		migrated = max(migrated, len(l.since)) // a promoted leader counts from zero
	}
	r.t.Logf("%d acked, %d failed, %d failovers (%d over debris), %d zombies, %d owners migrated, %d block builds, %d GC runs, faults %+v",
		r.acked, r.failed, r.failovers, r.debris, len(r.zombies), migrated, st.EdgeBlocks.Builds, st.GC.Runs, r.faults())
	if r.acked == 0 || migrated == 0 {
		r.fatalf("latest", "vacuous stream: %d acked writes, %d owners migrated", r.acked, migrated)
	}
}

func (r *oracleRun) faults() storage.FaultStats {
	if r.plan == nil {
		return storage.FaultStats{}
	}
	return r.plan.Stats()
}

// op draws and runs one step of the stream.
func (r *oracleRun) op() {
	replicated, sharded := r.db.group != nil, r.db.Shards() > 1
	switch n := r.rng.Intn(200); {
	case n < 48:
		r.write(r.singleWrite())
	case n < 68:
		r.write(r.batch(sharded && r.rng.Intn(2) == 0, 2+r.rng.Intn(14)))
	case n < 78:
		if len(r.snaps) < 2 {
			r.snaps = append(r.snaps, r.db.Snapshot())
		} else {
			r.closeSnapshot()
		}
	case n < 82:
		r.closeSnapshot()
	case n < 102:
		r.traverse()
	case n < 110:
		r.checkpoint()
	case n < 116:
		r.maintain("RunGC", func() error {
			// A relocation append is not retried: GC gives up and runs again.
			if _, err := r.db.RunGC(4); !storage.IsTransient(err) {
				return err
			}
			return nil
		})
	case n < 120:
		r.maintain("BuildEdgeBlocks", func() error { _, err := r.db.BuildEdgeBlocks(); return err })
	case !replicated:
		r.write(r.singleWrite())
	case n < 124:
		r.writeSnapshot()
	case n < 126:
		r.db.TrimWAL()
	case n < 134:
		r.replicaOp()
	case n < 136:
		r.liveFailover(r.rng.Intn(r.db.Shards()))
	case n < 146:
		r.fault()
	case sharded && n < 152:
		r.txnKill()
	default:
		r.write(r.singleWrite())
	}
}

// tag makes the tag of the next write.
func (r *oracleRun) tag(j int) string {
	tag := fmt.Sprintf("%d.%d.%d", r.seed, r.step, j)
	r.tags[tag] = true
	return tag
}

func (r *oracleRun) owner() VertexID {
	if r.rng.Intn(3) > 0 {
		return VertexID(1 + r.rng.Intn(oracleHot))
	}
	return VertexID(1 + r.rng.Intn(oracleOwners))
}

// edgeTo draws an edge of src: a hot owner's reach 100 destinations, so it
// outgrows the split and edge-block thresholds; the others stay among the
// owners, so traversals find paths and cycles.
func (r *oracleRun) edgeTo(src VertexID) okey {
	n := oracleOwners + 8
	if src <= oracleHot {
		n = 100
	}
	return edgeKey(src, oracleTypes[r.rng.Intn(4)/3], VertexID(1+r.rng.Intn(n)))
}

// singleWrite is one AddEdge, DeleteEdge (of a written edge, mostly) or
// AddVertex.
func (r *oracleRun) singleWrite() []mut {
	switch n := r.rng.Intn(10); {
	case n < 2:
		return []mut{{k: vertexKey(r.owner(), VTypeUser), tag: r.tag(0)}}
	case n < 4:
		k := r.edgeTo(r.owner())
		if len(r.edges) > 0 && r.rng.Intn(3) > 0 {
			k = r.edges[r.rng.Intn(len(r.edges))] // one that was written, mostly
		}
		return []mut{{k: k, del: true}}
	}
	return []mut{{k: r.edgeTo(r.owner()), tag: r.tag(0)}}
}

// batch is an ApplyBatch of up to n distinct keys: of one owner, or of owners
// on several shards.
func (r *oracleRun) batch(multi bool, n int) []mut {
	srcs := []VertexID{r.owner()}
	if multi {
		router := r.db.group.Router()
		for _, v := range r.rng.Perm(oracleOwners) {
			if o := VertexID(v + 1); router.Owner(o) != router.Owner(srcs[0]) && len(srcs) < 3 {
				srcs = append(srcs, o)
			}
		}
	}
	var ms []mut
	seen := map[okey]bool{}
	for j := 0; j < n; j++ {
		src := srcs[j%len(srcs)]
		k := r.edgeTo(src)
		if j == 1 {
			k = vertexKey(src, VTypeUser)
		}
		if seen[k] {
			continue
		}
		seen[k] = true
		m := mut{k: k, del: len(k.key) == 10 && r.rng.Intn(5) == 0}
		if !m.del {
			m.tag = r.tag(j)
		}
		ms = append(ms, m)
	}
	return ms
}

// write sends ms — one call for one mutation, else one ApplyBatch — and
// accounts for the outcome in the stream's truth.
func (r *oracleRun) write(ms []mut) error {
	var err error
	if len(ms) == 1 {
		err = ms[0].apply(r.db)
	} else {
		batch := make([]Mutation, len(ms))
		for i, m := range ms {
			batch[i] = m.mutation()
		}
		err = r.db.ApplyBatch(batch)
		r.noteMultiShard(ms)
	}
	for _, m := range ms {
		r.touched = append(r.touched, m.k)
		if !m.del && len(m.k.key) == 10 {
			r.edges = append(r.edges, m.k)
		}
		switch {
		case err == nil && m.del:
			r.truth.ackDelete(m.k)
		case err == nil:
			r.truth.ackPut(m.k, m.tag)
		case m.del:
			r.truth.failDelete(m.k)
		default:
			r.truth.failPut(m.k, m.tag)
		}
	}
	switch {
	case err == nil:
		r.acked++
	case r.plan == nil:
		r.fatalf("latest", "write on a bare engine: %v", err)
	default:
		r.failed++
	}
	return err
}

func (m mut) mutation() Mutation {
	if len(m.k.key) == 4 {
		return AddVertexMut(Vertex{ID: m.k.owner, Type: VTypeUser, Props: tagged(m.tag)})
	}
	typ, dst, _ := graph.DecodeEdgeKey([]byte(m.k.key))
	if m.del {
		return DeleteEdgeMut(m.k.owner, typ, dst)
	}
	return AddEdgeMut(Edge{Src: m.k.owner, Dst: dst, Type: typ, Props: tagged(m.tag)})
}

// apply is m as a single call on s.
func (m mut) apply(s graph.Store) error {
	gm := m.mutation()
	switch gm.Kind {
	case graph.MutAddVertex:
		return s.AddVertex(gm.Vertex)
	case graph.MutDeleteEdge:
		return s.DeleteEdge(gm.Edge.Src, gm.Edge.Type, gm.Edge.Dst)
	}
	return s.AddEdge(gm.Edge)
}

// noteMultiShard remembers the puts of a batch over several shards for the
// all-or-none check.
func (r *oracleRun) noteMultiShard(ms []mut) {
	if r.db.Shards() == 1 {
		return
	}
	var b multiShard
	shards := map[int]bool{}
	for _, m := range ms {
		shards[r.db.group.Router().Owner(m.k.owner)] = true
		if !m.del {
			b.tags = append(b.tags, m.tag)
			b.shards = append(b.shards, r.db.group.Router().Owner(m.k.owner))
		}
	}
	if len(shards) > 1 {
		r.txns = append(r.txns, b)
	}
}

func (r *oracleRun) closeSnapshot() {
	if len(r.snaps) == 0 {
		return
	}
	i := r.rng.Intn(len(r.snaps))
	r.snaps[i].Close()
	r.snaps = append(r.snaps[:i], r.snaps[i+1:]...)
}

func (r *oracleRun) maintain(what string, fn func() error) {
	if err := fn(); err != nil {
		r.fatalf("latest", "%s: %v", what, err)
	}
}

// checkpoint checkpoints every shard and syncs every replica: then no extent
// GC condemned may still be held, unless by a snapshot pinned on a leader
// since deposed.
func (r *oracleRun) checkpoint() {
	r.maintain("Checkpoint", r.db.Checkpoint)
	for _, rep := range r.reps {
		r.maintain("Sync", rep.Sync)
	}
	if len(r.snaps) > 0 {
		return
	}
	for i := range r.db.Shards() {
		if n := r.db.eng(i).Store().Stats().CondemnedExtents; n != 0 {
			r.fatalf("condemned", "shard %d holds %d condemned extents after a checkpoint and a sync of every replica", i, n)
		}
	}
}

// writeSnapshot completes a checkpoint rotation on every shard, which trims
// the WAL before its first checkpoint: no sealed extent the log had before the
// call is left.
func (r *oracleRun) writeSnapshot() {
	tails := make([]storage.Cursor, r.db.Shards())
	for i := range tails {
		tails[i] = r.db.group.Store(i).TailCursor(storage.StreamWAL)
	}
	r.maintain("WriteSnapshot", r.db.WriteSnapshot)
	for i, tail := range tails {
		for _, u := range r.db.group.Store(i).Usage(storage.StreamWAL) {
			if u.Sealed && u.Extent < tail.Extent {
				r.fatalf("trim", "shard %d keeps WAL extent %d, sealed before the rotation that began at extent %d", i, u.Extent, tail.Extent)
			}
		}
	}
}

func (r *oracleRun) replicaOp() {
	switch n := r.rng.Intn(10); {
	case n < 3 && len(r.reps) < 2:
		rep, err := r.db.OpenReplica()
		if err != nil {
			r.fatalf("replica", "OpenReplica: %v", err)
		}
		r.reps = append(r.reps, rep)
	case n < 9 && len(r.reps) > 0:
		rep := r.reps[r.rng.Intn(len(r.reps))]
		r.maintain("Sync", rep.Sync)
		r.poll(false)
		for i, l := range r.logs {
			if got := rep.AppliedLSN(i); got != uint64(l.last) {
				r.fatalf("replica", "shard %d: synced to LSN %d, the log ends at %d", i, got, l.last)
			}
		}
	case len(r.reps) > 0:
		i := r.rng.Intn(len(r.reps))
		r.reps[i].Stop()
		r.reps = append(r.reps[:i], r.reps[i+1:]...)
	}
}

// traverse runs one traversal on one reader and compares it with the same
// traversal on ref at that reader's state.
func (r *oracleRun) traverse() {
	readers := []traverser{r.db}
	for _, s := range r.snaps {
		readers = append(readers, s)
	}
	for _, rep := range r.reps {
		readers = append(readers, rep)
	}
	i := r.rng.Intn(len(readers))
	rd := readers[i]
	r.poll(false)
	want, _, err := r.stateOf(rd)
	if err != nil {
		r.fatalf("traversal", "reader %d: %v", i, err)
	}
	start, typ := VertexID(1+r.rng.Intn(oracleOwners)), oracleTypes[r.rng.Intn(2)]
	var got, exp any
	var gerr error
	switch r.rng.Intn(3) {
	case 0:
		h, limit := 1+r.rng.Intn(4), 3*r.rng.Intn(2)
		counted := &hopCount{Reader: want, router: shard.NewRouter(r.db.Shards())}
		before := r.scatter()
		got, gerr = rd.KHop(start, typ, h, limit)
		exp, _ = graph.KHop(counted, start, typ, h, limit)
		if after := r.scatter(); r.db.group != nil && (after[0]-before[0] != counted.scatters || after[1]-before[1] != counted.reads) {
			r.fatalf("scatter", "reader %d KHop(%d, hops %d): %d scatters and %d shard reads, want %d and %d",
				i, start, h, after[0]-before[0], after[1]-before[1], counted.scatters, counted.reads)
		}
	case 1:
		p := Pattern{N: 3, Edges: []PatternEdge{{From: 0, To: 1, Type: typ}, {From: 1, To: 2, Type: oracleTypes[r.rng.Intn(2)]}}}
		seeds := []VertexID{start, VertexID(1 + r.rng.Intn(oracleOwners))}
		max := 4 * r.rng.Intn(2)
		got, gerr = rd.MatchPattern(p, seeds, max)
		exp, _ = pattern.Match(want, p, seeds, max)
	default:
		maxLen, max := 3+r.rng.Intn(2), 4*r.rng.Intn(2)
		got, gerr = rd.FindCycles(start, typ, maxLen, max)
		exp, _ = pattern.FindCycles(want, start, typ, maxLen, max)
	}
	if gerr != nil || !reflect.DeepEqual(got, exp) {
		r.fatalf("traversal", "reader %d from %d: %v (err %v), reference %v", i, start, got, gerr, exp)
	}
}

// scatter reads the router's two counters; zeros on a bare engine.
func (r *oracleRun) scatter() [2]int64 {
	if r.db.group == nil {
		return [2]int64{}
	}
	m := r.db.group.Metrics().Snapshot()
	return [2]int64{m["shard.scatter_hops"].Value, m["shard.scatter_shard_reads"].Value}
}

// stateOf is the state reader rd must read: the log's at its pinned epochs
// (a Snapshot), its applied LSNs (a Replica) or the released read epochs (the
// DB's traversals pin those); on a bare engine, the stream's truth.
func (r *oracleRun) stateOf(rd traverser) (ref, []uint64, error) {
	if r.db.group == nil {
		want := ref{}
		for k, tag := range r.truth.acked {
			want.put(k, tag)
		}
		return want, nil, nil
	}
	var vec []uint64
	switch rd := rd.(type) {
	case *Snapshot:
		vec = rd.Epochs()
	case *Replica:
		for i := range r.db.Shards() {
			vec = append(vec, rd.AppliedLSN(i))
		}
	default:
		vec = r.db.Stats().Shards.ReadEpochs
	}
	want, err := stateAt(r.logs, vec)
	return want, vec, err
}

// liveFailover deposes a healthy leader, then writes through it as a zombie:
// every write fails, and none reaches the log.
func (r *oracleRun) liveFailover(i int) {
	old := r.db.group.Leader(i)
	r.failover(i)
	tag := fmt.Sprintf("zombie.%d.%d", r.seed, r.step)
	r.zombies[tag] = true
	zerr := old.AddEdge(Edge{Src: 1, Dst: 2, Type: ETypeFollow, Props: tagged(tag)})
	st := r.db.group.Store(i)
	written := st.Stats().BytesWritten
	// Past the node, straight to the store under the deposed tenure's token,
	// through a fresh committer on the deposed writer.
	key := append(binary.BigEndian.AppendUint64(nil, 1), graph.EdgeKey(ETypeFollow, 3)...)
	raw := wal.NewGroupCommitter(old.Writer(), wal.GroupCommitterOptions{})
	_, werr := raw.Log(&wal.Record{Type: wal.RecordPut, Key: key, Value: graph.EncodeProps(tagged(tag))})
	raw.Stop()
	switch {
	case !errors.Is(zerr, storage.ErrFenced) && !errors.Is(zerr, wal.ErrWriterFailed) && !errors.Is(zerr, wal.ErrCommitterStopped):
		r.fatalf("zombie", "write on deposed shard %d leader: %v", i, zerr)
	case !errors.Is(werr, storage.ErrFenced):
		r.fatalf("zombie", "append by deposed shard %d leader's writer: %v, want ErrFenced", i, werr)
	case st.Stats().BytesWritten != written:
		r.fatalf("zombie", "a fenced append persisted %d bytes", st.Stats().BytesWritten-written)
	}
}

// failover promotes a new leader of shard i, failed writer or not: the fence
// epoch moves by one, or by two when the log the promotion drains ends in
// debris.
func (r *oracleRun) failover(i int) {
	old := r.db.group.Leader(i)
	for n := 0; old.Logger().InflightGroups() > 0 && n < 10000; n++ {
		time.Sleep(100 * time.Microsecond) // a failed pipeline's flights still landing
	}
	r.poll(true)
	debris := r.logs[i].rd.PendingGroups() > 0
	before := r.db.group.Store(i).StreamEpoch(storage.StreamWAL)
	if err := r.db.Failover(i); err != nil {
		r.fatalf("latest", "failover of shard %d: %v", i, err)
	}
	want := before + 1
	if debris {
		want++
		r.debris++
	}
	if got := r.db.Epoch(i); got != want {
		r.fatalf("epoch", "shard %d promoted at epoch %d from %d, want %d (debris: %v)", i, got, before, want, debris)
	}
	r.failovers++
}

// fault injects one storage fault under one op: a crash point under a write,
// a batch whose pipelined groups a tear and a crash split, a checkpoint or a
// GC run; or a torn append the writer retries.
func (r *oracleRun) fault() {
	switch r.rng.Intn(5) {
	case 0:
		r.plan.ScheduleCrash(int64(1 + r.rng.Intn(3)))
		r.write(r.singleWrite())
	case 1:
		// The first flight tears and backs off, the next lands past it, and
		// the crash fails the retry: the batch leaves debris.
		r.plan.TearNext()
		r.plan.ScheduleCrash(3)
		r.write(r.batch(false, 16))
	case 2:
		r.plan.ScheduleCrash(int64(2 + r.rng.Intn(3)))
		_ = r.db.Checkpoint() // a failed cycle carries what it wrote into the next
	case 3:
		r.plan.ScheduleCrash(int64(1 + r.rng.Intn(2)))
		_, _ = r.db.RunGC(4)
	default:
		r.plan.TearNext()
		r.write(r.singleWrite())
	}
}

// txnKill kills the coordinator or a participant of a batch over several
// shards between its 2PC stages, opening a Snapshot there too. Once prepared
// the cut holds none of the batch. Once decided the hook runs inside the
// batch's cut window, where a Snapshot waits for the batch to return: it is
// taken on a goroutine of its own and collected after the write, and holds
// the whole batch or, had it aborted, none of it.
func (r *oracleRun) txnKill() {
	stage := []shard.TxnStage{shard.StagePrepared, shard.StageDecided}[r.rng.Intn(2)]
	coord, fired := r.rng.Intn(2) == 0, false
	var late chan *Snapshot
	r.plan.SetEnabled(false)
	r.db.group.SetTxnStageHook(func(s shard.TxnStage, _ uint64, members []int) {
		if fired || s != stage {
			return
		}
		fired = true
		switch {
		case len(r.snaps) >= 3:
		case s == shard.StagePrepared:
			r.snaps = append(r.snaps, r.db.Snapshot())
		default:
			late = make(chan *Snapshot, 1)
			go func() { late <- r.db.Snapshot() }()
		}
		target := members[len(members)-1]
		if coord {
			target = members[0]
		}
		r.failover(target)
	})
	r.write(r.batch(true, 2+r.rng.Intn(10)))
	r.db.group.SetTxnStageHook(nil)
	if late != nil {
		r.snaps = append(r.snaps, <-late) // check holds it to all-or-none
	}
	r.plan.SetEnabled(true)
}

// settle ends a step's faults: the crash point is lifted, and every shard
// whose writer died is failed over in a quiet window.
func (r *oracleRun) settle() {
	if r.plan == nil {
		return
	}
	r.plan.ClearCrash()
	r.plan.SetEnabled(false)
	for i := range r.db.Shards() {
		if r.db.group.Leader(i).Writer().Err() != nil {
			r.failover(i)
		}
	}
	r.plan.SetEnabled(true)
}

// poll brings every shard's log up to date. Unforced, it skips a shard whose
// reader holds groups past a hole and whose leader assigned nothing since the
// last poll: debris waits for the next tenure's first record, and a poll
// without progress over it would count toward a gap.
func (r *oracleRun) poll(force bool) {
	for i, l := range r.logs {
		rw := r.db.group.Leader(i)
		if !force && l.rd.PendingGroups() > 0 && rw == l.leader && rw.LastLSN() == l.seen {
			continue
		}
		l.leader, l.seen = rw, rw.LastLSN()
		tags, err := l.poll()
		if err != nil {
			r.fatalf("log-acked", "shard %d: %v", i, err)
		}
		for _, tag := range tags {
			if r.zombies[tag] {
				r.fatalf("zombie", "shard %d: the log holds zombie write %q", i, tag)
			}
			if !r.tags[tag] {
				r.fatalf("log-known", "shard %d: the log holds %q, which the stream never wrote", i, tag)
			}
		}
	}
}

// check runs every check against every reader.
func (r *oracleRun) check() {
	got, err := observe(r.db, r.owners, oracleTypes)
	if err == nil {
		err = r.truth.agrees(got)
	}
	for _, k := range r.touched {
		if err != nil {
			break
		}
		tag, found, rerr := pointRead(r.db, k)
		if err = rerr; err == nil {
			err = r.truth.check(k, tag, found)
		}
	}
	if err != nil {
		r.fatalf("latest", "%v", err)
	}
	if r.db.group != nil {
		r.poll(false)
	}
	for i, s := range r.snaps {
		r.checkReader(fmt.Sprintf("snapshot %d at %v", i, s.Epochs()), "snapshot", s)
	}
	if r.db.group == nil {
		return
	}
	end := make([]uint64, len(r.logs))
	for i, l := range r.logs {
		end[i] = uint64(l.last)
	}
	latest, err := stateAt(r.logs, end)
	if err == nil {
		err = r.truth.agrees(latest)
	}
	if err != nil {
		r.fatalf("log-acked", "%v", err)
	}
	if err := allOrNone(r.logs, r.txns, end); err != nil {
		r.fatalf("all-or-none", "%v", err)
	}
	for i, rep := range r.reps {
		r.checkReader(fmt.Sprintf("replica %d", i), "replica", rep)
	}
}

// checkReader compares everything rd reads with its state.
func (r *oracleRun) checkReader(what, check string, rd traverser) {
	want, vec, err := r.stateOf(rd)
	if err != nil {
		r.fatalf(check, "%s: %v", what, err)
	}
	// A cut is a Snapshot's; a Replica's followers tail their shards apart.
	if err := allOrNone(r.logs, r.txns, vec); check == "snapshot" && vec != nil && err != nil {
		r.fatalf("all-or-none", "%s: %v", what, err)
	}
	got, err := observe(rd, r.owners, oracleTypes)
	if err == nil {
		err = diff(got, want)
	}
	for _, k := range r.touched {
		if err != nil {
			break
		}
		tag, found, rerr := pointRead(rd, k)
		wtag, wfound := want[k.owner][k.key]
		if err = rerr; err == nil && (found != wfound || tag != wtag) {
			err = fmt.Errorf("%v: point read %q (present %v), want %q (present %v)", k, tag, found, wtag, wfound)
		}
	}
	if err != nil {
		r.fatalf(check, "%s: %v", what, err)
	}
}

func pointRead(rd graph.Reader, k okey) (string, bool, error) {
	if len(k.key) == 4 {
		v, ok, err := rd.GetVertex(k.owner, VTypeUser)
		return tagOf(v.Props), ok, err
	}
	typ, dst, _ := graph.DecodeEdgeKey([]byte(k.key))
	e, ok, err := rd.GetEdge(k.owner, typ, dst)
	return tagOf(e.Props), ok, err
}

// TestOracleSemantics pins the stream's truth itself.
func TestOracleSemantics(t *testing.T) {
	k := edgeKey(1, 2, 3)

	t.Run("acked write must survive", func(t *testing.T) {
		o := newTruth()
		o.ackPut(k, "a")
		if err := o.check(k, "a", true); err != nil {
			t.Fatal(err)
		}
		if err := o.check(k, "", false); err == nil {
			t.Fatal("lost acked write not detected")
		}
		if err := o.check(k, "b", true); err == nil {
			t.Fatal("wrong value not detected")
		}
	})

	t.Run("failed put may land or not", func(t *testing.T) {
		o := newTruth()
		o.ackPut(k, "a")
		o.failPut(k, "b")
		for _, c := range []struct {
			got   string
			found bool
			ok    bool
		}{
			{"a", true, true},  // failed op never landed
			{"b", true, true},  // failed op landed
			{"", false, false}, // acked value cannot vanish
			{"c", true, false}, // value from nowhere
		} {
			if err := o.check(k, c.got, c.found); (err == nil) != c.ok {
				t.Errorf("check(%q, %v) = %v, want ok=%v", c.got, c.found, err, c.ok)
			}
		}
	})

	t.Run("failed delete allows absence", func(t *testing.T) {
		o := newTruth()
		o.ackPut(k, "a")
		o.failDelete(k)
		if err := o.check(k, "", false); err != nil {
			t.Fatal(err)
		}
		if err := o.check(k, "a", true); err != nil {
			t.Fatal(err)
		}
	})

	t.Run("ack after failure restores certainty", func(t *testing.T) {
		o := newTruth()
		o.failPut(k, "b")
		o.ackPut(k, "c")
		if err := o.check(k, "b", true); err == nil {
			t.Fatal("stale failed candidate accepted after later ack")
		}
		if err := o.check(k, "c", true); err != nil {
			t.Fatal(err)
		}
	})

	t.Run("phantom on untouched key", func(t *testing.T) {
		o := newTruth()
		o.failPut(k, "b")
		o.ackDelete(k)
		if err := o.check(k, "b", true); err == nil {
			t.Fatal("acked delete must clear failed candidates")
		}
	})
}

// oracleConcurrent is the concurrent leg: writers batch over a hub owner that
// migrates to a tree of its own and packs into an edge block, and over
// sources of their own; pinned readers traverse hub → sources → their edges;
// a loop checkpoints, reclaims and builds blocks; failovers race them all.
// Every pinned traversal must read exactly the log's state at its epochs,
// every epoch a group boundary, no reader's epochs may run backwards, and a
// batch over several shards is all or none at the log's end and in every
// cut. A Snapshot waits out the transactions applying, so the writers run
// long enough for the readers to check a few hundred cuts.
func oracleConcurrent(t *testing.T, shape string) {
	o := oracleOptions(shape)
	o.CacheCapacity, o.ReplicaCacheCapacity = 16, 0
	o.CommitPipelineDepth, o.CommitMaxBatch, o.CommitWindow = 8, 16, 100*time.Microsecond
	db := openDB(t, &o)
	logs := logsOf(db)
	const (
		hub            = VertexID(1)
		writers        = 6
		rounds, fan    = 200, 12
		readers, perRd = 3, 300
	)
	srcs := []VertexID{hub}
	for w := range writers {
		srcs = append(srcs, VertexID(2+w))
	}

	var (
		mu       sync.Mutex // guards firstErr, backward and all
		firstErr error
		backward error // the first epoch vector a reader saw move backwards
		all      []multiShard
		built    int // blocks the maintenance loop packed
		stop     = make(chan struct{})
		wwg, awg sync.WaitGroup
	)
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
	}
	// deposed: the call reached a leader a failover fenced or stopped.
	deposed := func(err error) bool {
		return errors.Is(err, storage.ErrFenced) || errors.Is(err, wal.ErrWriterFailed) ||
			errors.Is(err, wal.ErrCommitterStopped)
	}
	retryable := func(err error) bool { return deposed(err) || errors.Is(err, shard.ErrTxnAborted) }
	for w := range writers {
		wwg.Add(1)
		go func() {
			defer wwg.Done()
			for n := range rounds {
				var ms []Mutation
				var b multiShard
				add := func(src, dst VertexID) {
					tag := fmt.Sprintf("c%d.%d.%d", w, n, len(ms))
					ms = append(ms, AddEdgeMut(Edge{Src: src, Dst: dst, Type: ETypeFollow, Props: tagged(tag)}))
					b.tags, b.shards = append(b.tags, tag), append(b.shards, db.group.Router().Owner(src))
				}
				for d := range fan {
					add(hub, VertexID(1000*(w+1)+d))
				}
				for d := range 4 {
					add(srcs[1+w], VertexID(5000+d))
				}
				if n%2 == 1 {
					ms = append(ms, DeleteEdgeMut(hub, ETypeFollow, VertexID(1000*(w+1))))
				}
				for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(200 * time.Microsecond) {
					err := db.ApplyBatch(ms)
					if err == nil {
						break
					}
					if !retryable(err) || time.Now().After(deadline) {
						fail(fmt.Errorf("writer %d batch %d: %w", w, n, err))
						return
					}
				}
				mu.Lock()
				all = append(all, b)
				mu.Unlock()
			}
		}()
	}

	type observation struct {
		vec []uint64
		got ref
	}
	obs := make([][]observation, readers)
	for rd := range readers {
		awg.Add(1)
		go func() {
			defer awg.Done()
			var last []uint64
			for len(obs[rd]) < perRd {
				select {
				case <-stop:
					return
				default:
				}
				s := db.Snapshot()
				vec := s.Epochs()
				got, err := observe(s, srcs, oracleTypes[:1])
				s.Close()
				if err != nil {
					fail(err)
					return
				}
				for i := range last {
					if vec[i] < last[i] {
						mu.Lock()
						if backward == nil {
							backward = fmt.Errorf("reader %d: shard %d epoch went backwards: %d after %d", rd, i, vec[i], last[i])
						}
						mu.Unlock()
						return
					}
				}
				last = vec
				obs[rd] = append(obs[rd], observation{vec, got})
				time.Sleep(100 * time.Microsecond)
			}
		}()
	}
	awg.Add(1)
	go func() {
		defer awg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			// The oracle's readers read ahead of every trim.
			for i, l := range logs {
				if _, err := l.poll(); err != nil {
					fail(fmt.Errorf("shard %d log: %w", i, err))
				}
			}
			n, err := db.BuildEdgeBlocks()
			if built += n; err == nil {
				if err = db.Checkpoint(); err == nil {
					_, err = db.RunGC(2)
				}
			}
			// A round that raced a failover runs again on the next.
			if err != nil && !deposed(err) {
				fail(err)
				return
			}
			time.Sleep(300 * time.Microsecond)
		}
	}()
	// Failovers race the writers, the readers and the maintenance loop.
	for _, i := range []int{db.Shards() - 1, 0} {
		time.Sleep(3 * time.Millisecond)
		if err := db.Failover(i); err != nil {
			fail(fmt.Errorf("failover of shard %d: %w", i, err))
		}
	}
	wwg.Wait()
	close(stop)
	awg.Wait()
	if firstErr != nil {
		t.Fatal(firstErr)
	}

	skips := int64(0)
	for i, l := range logs {
		if _, err := l.poll(); err != nil {
			t.Fatalf("shard %d log: %v", i, err)
		}
		skips += l.rd.FencedSkips()
	}
	var multi []multiShard
	for _, b := range all {
		if slices.ContainsFunc(b.shards, func(i int) bool { return i != b.shards[0] }) {
			multi = append(multi, b)
		}
	}
	end := make([]uint64, len(logs))
	for i, l := range logs {
		end[i] = uint64(l.last)
	}
	if err := allOrNone(logs, all, end); err != nil {
		t.Fatalf("all-or-none: at the log's end: %v", err)
	}
	for _, b := range all {
		if _, ok := logs[b.shards[0]].first[b.tags[0]]; !ok {
			t.Fatalf("log-acked: acknowledged batch %v is not in the log", b.tags)
		}
	}
	if db.Shards() > 1 && len(multi) == 0 {
		t.Fatal("no batch spanned shards")
	}
	st := db.Stats()
	t.Logf("%d failovers, %d fenced records skipped, %d blocks packed racing the readers",
		st.Replication.Failovers, skips, built)

	// Each pinned traversal read exactly the log's state at its epoch vector,
	// a group boundary of every shard, and its cut holds every batch over
	// several shards wholly or not at all.
	t.Run("snapshot-at-group-boundary", func(t *testing.T) {
		checked := 0
		for rd := range obs {
			for _, ob := range obs[rd] {
				full, err := stateAt(logs, ob.vec)
				if err != nil {
					t.Fatalf("snapshot: reader %d at %v: %v", rd, ob.vec, err)
				}
				want, _ := observe(full, srcs, oracleTypes[:1]) // what the reader read of it
				if err := diff(ob.got, want); err != nil {
					t.Fatalf("snapshot: reader %d at %v: %v", rd, ob.vec, err)
				}
				if err := allOrNone(logs, multi, ob.vec); err != nil {
					t.Fatalf("all-or-none: reader %d: %v", rd, err)
				}
				checked++
			}
		}
		wait := db.Metrics().Snapshot()["shard.snapshot_wait_us"].Histogram
		if wait != nil {
			t.Logf("%d pinned traversals checked, none tore a batch over several shards (of %d); snapshot wait p50 %dus p99 %dus",
				checked, len(multi), wait.P50US, wait.P99US)
		} else {
			t.Logf("%d pinned traversals checked", checked)
		}
		want := 1
		if db.Shards() > 1 {
			want = 200 // the cuts a Snapshot took while transactions applied
		}
		if checked < want {
			t.Fatalf("%d pinned traversals checked, want at least %d", checked, want)
		}
	})
	// Under the write storm no reader saw an epoch move backwards, and every
	// pin was released.
	t.Run("epochs-monotone-pins-released", func(t *testing.T) {
		if backward != nil {
			t.Fatal(backward)
		}
		if st.MVCC.PinnedEpochs != 0 {
			t.Fatalf("%d pins leaked", st.MVCC.PinnedEpochs)
		}
	})
	// The hub the readers traversed migrated to a tree of its own and packed
	// into edge blocks, so the pinned reads above spanned block builds.
	t.Run("block-builds", func(t *testing.T) {
		n, err := db.BuildEdgeBlocks()
		if err != nil {
			t.Fatal(err)
		}
		if logs[db.group.Router().Owner(hub)].since[hub] == 0 {
			t.Fatal("the hub never migrated to a tree of its own")
		}
		if built+n == 0 {
			t.Fatal("the hub's tree never packed into an edge block")
		}
	})
}
