package core

import (
	"fmt"

	"bg3/internal/bwtree"
	"bg3/internal/forest"
	"bg3/internal/graph"
	"bg3/internal/metrics"
	"bg3/internal/storage"
	"bg3/internal/wal"
)

// Replica is the RO-node view of a BG3 engine (§3.4): a forest in the applier
// role — the leader's page table, cache and read path, written by the WAL
// records the replication layer ships — plus the graph read API over it. A
// read sees exactly the commit groups applied in full when it began.
type Replica struct {
	forest  *forest.Forest
	mapping *bwtree.Mapping
}

// NewReplica creates an empty replica reading pages from the shared store,
// to be fed the log from its beginning. capacity bounds the pages with
// resident content (0 = unlimited).
func NewReplica(st *storage.Store, capacity int) *Replica {
	m := bwtree.NewApplierMapping(capacity)
	return &Replica{forest: forest.NewApplier(m, st), mapping: m}
}

// NewReplicaFromSnapshot creates a replica holding the snapshot's durable
// shape — every tree's leaf directory and the owner assignments, no page
// read — to be fed the log beyond horizon, the WAL LSN the snapshot reflects.
func NewReplicaFromSnapshot(st *storage.Store, capacity int, state SnapshotState, horizon wal.LSN) (*Replica, error) {
	m := bwtree.NewApplierMapping(capacity)
	var init *bwtree.Tree
	dedicated := make(map[forest.OwnerID]*bwtree.Tree)
	for _, ts := range state.Trees {
		t, err := bwtree.Rebuild(m, st, ts.Tree, ts.Leaves)
		if err != nil {
			return nil, fmt.Errorf("core: snapshot tree %d: %w", ts.Tree, err)
		}
		switch {
		case ts.Tree == state.Init:
			init = t
		case ts.HasOwner:
			dedicated[ts.Owner] = t
		default:
			return nil, fmt.Errorf("core: snapshot tree %d is neither INIT nor owned", ts.Tree)
		}
	}
	if init == nil {
		return nil, fmt.Errorf("core: snapshot has no INIT tree")
	}
	f := forest.Rebuild(m, st, init, dedicated)
	f.Publish(horizon)
	return &Replica{forest: f, mapping: m}, nil
}

// TakeOver makes the replica the leader's engine under opts, in place: the
// hand-over by which a leader recovers and a follower is promoted. The caller
// has applied the log to its durable end (Drain) and applies nothing after; the
// page table and forest change hands (forest.Forest.TakeOver) and the engine is put
// together around them as around a new forest, logging through opts.Logger.
// Reads through the replica see the engine's latest state from then on.
func (r *Replica) TakeOver(st *storage.Store, opts Options) (*Engine, error) {
	opts.Tree.Epochs = opts.Epochs
	if err := r.forest.TakeOver(opts.forestConfig()); err != nil {
		return nil, fmt.Errorf("core: take over: %w", err)
	}
	e := assemble(st, r.mapping, r.forest, opts)
	e.AttachLogger(opts.Logger)
	return e, nil
}

// Apply incorporates one WAL record.
func (r *Replica) Apply(rec *wal.Record) error { return r.forest.ApplyGroup([]*wal.Record{rec}) }

// ApplyAll incorporates records in order, each visible once it is in.
func (r *Replica) ApplyAll(recs []*wal.Record) error {
	for _, rec := range recs {
		if err := r.Apply(rec); err != nil {
			return err
		}
	}
	return nil
}

// ApplyGroup incorporates one commit group as a unit: none of it is visible
// to a read until all of it is in (forest.Forest.ApplyGroup).
func (r *Replica) ApplyGroup(recs []*wal.Record) error { return r.forest.ApplyGroup(recs) }

// ApplyFrom applies the commit groups rd yields beyond its cursor, each as a
// unit, and reports how many there were. Torn entries and retry duplicates
// are the reader's to absorb; a hole in the log (*wal.GapError, a lost
// extent) comes back with what preceded it applied, for the caller to judge:
// a follower resyncs from a snapshot, a drain aborts.
func (r *Replica) ApplyFrom(rd *wal.Reader) (groups int, err error) {
	grps, err := rd.PollGroups()
	for _, grp := range grps {
		if aerr := r.ApplyGroup(grp); aerr != nil {
			return len(grps), aerr
		}
	}
	return len(grps), err
}

// Drain applies the log to its durable end, which is what a replica does
// before it takes over. It is strict where a follower's poll is forgiving: a
// hole beyond what the replica holds means acknowledged writes are gone, and a
// leader that starts into silent data loss is worse than one that does not
// start. Groups parked behind a hole the reader still hopes to see filled
// (rd.PendingGroups) are the debris of a failed pipelined commit, never
// acknowledged, and stay unapplied.
func (r *Replica) Drain(rd *wal.Reader) error {
	for {
		n, err := r.ApplyFrom(rd)
		if err != nil {
			return fmt.Errorf("core: drain the WAL beyond lsn %d: %w", r.HighLSN(), err)
		}
		if n == 0 {
			return nil
		}
	}
}

// HighLSN reports the applied LSN: the end of the newest commit group
// incorporated, and the horizon reads run at.
func (r *Replica) HighLSN() wal.LSN { return r.forest.AppliedLSN() }

// BufferedRecords reports the lazy-replay backlog: the applied records no
// checkpoint has covered yet.
func (r *Replica) BufferedRecords() int { return r.mapping.OverlayOps() }

// RegisterMetrics exposes the replica's page-table accounting — the leader's
// own bwtree.* read metrics, measured on this node.
func (r *Replica) RegisterMetrics(reg *metrics.Registry) { r.mapping.RegisterMetrics(reg) }

// at is the read handle of this instant: the forest as of the applied LSN.
func (r *Replica) at() graphReads { return graphReads{forest: r.forest, horizon: r.HighLSN()} }

// GetVertex implements graph.Reader.
func (r *Replica) GetVertex(id graph.VertexID, typ graph.VertexType) (graph.Vertex, bool, error) {
	return r.at().GetVertex(id, typ)
}

// GetEdge implements graph.Reader.
func (r *Replica) GetEdge(src graph.VertexID, typ graph.EdgeType, dst graph.VertexID) (graph.Edge, bool, error) {
	return r.at().GetEdge(src, typ, dst)
}

// Neighbors implements graph.Reader.
func (r *Replica) Neighbors(src graph.VertexID, typ graph.EdgeType, limit int, fn func(graph.VertexID, graph.Properties) bool) error {
	return r.at().Neighbors(src, typ, limit, fn)
}

// NeighborsMany implements graph.FrontierReader: a follower batches a hop
// like the leader does.
func (r *Replica) NeighborsMany(srcs []graph.VertexID, typ graph.EdgeType, limit int, fn func(src, dst graph.VertexID) bool) error {
	return r.at().NeighborsMany(srcs, typ, limit, fn)
}

// Degree implements graph.Reader.
func (r *Replica) Degree(src graph.VertexID, typ graph.EdgeType) (int, error) {
	return r.at().Degree(src, typ)
}

var (
	_ graph.Reader         = (*Replica)(nil)
	_ graph.FrontierReader = (*Replica)(nil)
)
