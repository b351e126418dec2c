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

// Bootstrap attaches a replica to the log rd reads from the retained head
// (wal.NewReaderAtHead). A log never trimmed is replayed from LSN 1 by the
// caller's polls, into NewReplica. Past a trimmed prefix, rd's base is the
// trim's horizon: rd is read to the end of the log, the forest as it stood at
// the horizon is registered from the leaves the checkpoints in it name
// (forest.Bootstrap), and what was read is applied. The replica serves no read
// before that: a log that does not yet name a whole rotation fails with
// forest.ErrRotationIncomplete.
func Bootstrap(st *storage.Store, capacity int, rd *wal.Reader) (*Replica, error) {
	floor := rd.LastLSN()
	if floor == 0 {
		return NewReplica(st, capacity), nil
	}
	var groups [][]*wal.Record
	for {
		grps, err := rd.PollGroups()
		if err != nil {
			return nil, fmt.Errorf("core: bootstrap past lsn %d: %w", floor, err)
		}
		if len(grps) == 0 {
			break
		}
		groups = append(groups, grps...)
	}
	return bootstrap(st, capacity, floor, groups)
}

// bootstrap is Bootstrap of the log past floor, groups.
func bootstrap(st *storage.Store, capacity int, floor wal.LSN, groups [][]*wal.Record) (*Replica, error) {
	m := bwtree.NewApplierMapping(capacity)
	f, err := forest.Bootstrap(m, st, floor, groups)
	if err != nil {
		return nil, err
	}
	r := &Replica{forest: f, mapping: m}
	for _, grp := range groups {
		if err := r.ApplyGroup(grp); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// TakeOver makes the replica the leader's engine under opts, in place: the
// hand-over by which a leader recovers and a follower is promoted. The caller
// has applied the log to its durable end (Drain) and applies nothing after; the
// page table and forest change hands (forest.Forest.TakeOver) and the engine is put
// together around them as around a new forest, logging through opts.Logger.
// Reads through the replica see the engine's latest state from then on.
func (r *Replica) TakeOver(st *storage.Store, opts Options) (*Engine, error) {
	opts.Tree.Epochs = opts.Epochs
	if err := r.forest.TakeOver(opts.forestConfig(), opts.Logger); err != nil {
		return nil, fmt.Errorf("core: take over: %w", err)
	}
	return assemble(st, r.mapping, r.forest, opts), nil
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
// a follower re-attaches from the retained head, a drain aborts.
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

// CutLSN reports the last checkpoint record whose overlay cut is in
// (bwtree.Mapping.CutLSN): a checkpoint applies after its group is published,
// so HighLSN reaching it does not yet say its cut was made.
func (r *Replica) CutLSN() wal.LSN { return r.mapping.CutLSN() }

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
