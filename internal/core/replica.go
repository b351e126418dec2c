package core

import (
	"bg3/internal/forest"
	"bg3/internal/graph"
	"bg3/internal/storage"
	"bg3/internal/wal"
)

// Replica is the RO-node view of a BG3 engine: the forest replica plus the
// graph read API. It consumes WAL records (shipped by the replication
// layer) and serves strongly consistent reads.
type Replica struct {
	graphReads // over the forest replica's lazily replayed state
	rep        *forest.Replica
}

// NewReplica creates an empty replica reading pages from the shared store.
// capacity bounds its page cache (0 = unlimited).
func NewReplica(st *storage.Store, capacity int) *Replica {
	rep := forest.NewReplica(st, capacity)
	return &Replica{graphReads: graphReads{replica: rep}, rep: rep}
}

// Apply incorporates one WAL record.
func (r *Replica) Apply(rec *wal.Record) error { return r.rep.Apply(rec) }

// ApplyAll incorporates records in order.
func (r *Replica) ApplyAll(recs []*wal.Record) error { return r.rep.ApplyAll(recs) }

// ApplyGroup incorporates one commit group as a unit: the published high
// LSN advances only after every record in the group is in.
func (r *Replica) ApplyGroup(recs []*wal.Record) error { return r.rep.ApplyGroup(recs) }

// HighLSN reports the newest WAL LSN incorporated.
func (r *Replica) HighLSN() wal.LSN { return r.rep.HighLSN() }

// BufferedRecords reports the lazy-replay backlog.
func (r *Replica) BufferedRecords() int { return r.rep.BufferedRecords() }

var _ graph.Reader = (*Replica)(nil)
