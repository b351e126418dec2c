package forest

import (
	"encoding/binary"
	"fmt"
	"sync"

	"bg3/internal/bwtree"
	"bg3/internal/storage"
	"bg3/internal/wal"
)

// Replica is the RO-node view of a forest: a bwtree.Replica plus the owner
// directory reconstructed from RecordOwnerAssign WAL records. The first
// tree created in the WAL is taken as the INIT tree, matching Forest.New.
type Replica struct {
	rep *bwtree.Replica

	mu     sync.RWMutex
	owners map[OwnerID]bwtree.TreeID
	init   bwtree.TreeID
}

// NewReplica returns an empty forest replica. capacity bounds the cached
// pages of the underlying bwtree replica (0 = unlimited).
func NewReplica(store *storage.Store, capacity int) *Replica {
	return &Replica{
		rep:    bwtree.NewReplica(store, capacity),
		owners: make(map[OwnerID]bwtree.TreeID),
	}
}

// Apply incorporates one WAL record, maintaining the owner directory on
// assignment records and delegating everything else to the page replica.
func (r *Replica) Apply(rec *wal.Record) error {
	if err := r.applyDirectory(rec); err != nil {
		return err
	}
	return r.rep.Apply(rec)
}

// applyDirectory maintains the owner directory for the records that affect
// routing; all other records are a no-op here.
func (r *Replica) applyDirectory(rec *wal.Record) error {
	switch rec.Type {
	case wal.RecordNewTree:
		r.mu.Lock()
		if r.init == 0 {
			r.init = bwtree.TreeID(rec.TreeID)
		}
		r.mu.Unlock()
	case wal.RecordOwnerAssign:
		if len(rec.Key) != 8 {
			return fmt.Errorf("forest: replica: malformed owner assignment key (%d bytes)", len(rec.Key))
		}
		owner := OwnerID(binary.BigEndian.Uint64(rec.Key))
		r.mu.Lock()
		r.owners[owner] = bwtree.TreeID(rec.TreeID)
		r.mu.Unlock()
	}
	return nil
}

// ApplyAll incorporates records in order.
func (r *Replica) ApplyAll(recs []*wal.Record) error {
	for _, rec := range recs {
		if err := r.Apply(rec); err != nil {
			return err
		}
	}
	return nil
}

// ApplyGroup incorporates one commit group: records apply in order —
// directory and page state interleaved exactly as Apply would — but the
// published high LSN advances only once the whole group is in.
func (r *Replica) ApplyGroup(recs []*wal.Record) error {
	for _, rec := range recs {
		if err := r.applyDirectory(rec); err != nil {
			return err
		}
		if err := r.rep.ApplyDeferred(rec); err != nil {
			return err
		}
	}
	if n := len(recs); n > 0 {
		r.rep.PublishLSN(recs[n-1].LSN)
	}
	return nil
}

// HighLSN reports the newest WAL LSN incorporated.
func (r *Replica) HighLSN() wal.LSN { return r.rep.HighLSN() }

// route returns the tree serving owner and whether it is the INIT tree.
func (r *Replica) route(owner OwnerID) (bwtree.TreeID, bool, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if t, ok := r.owners[owner]; ok {
		return t, false, nil
	}
	if r.init == 0 {
		return 0, false, fmt.Errorf("forest: replica: no INIT tree observed yet")
	}
	return r.init, true, nil
}

// Get returns the value of key under owner.
func (r *Replica) Get(owner OwnerID, key []byte) ([]byte, bool, error) {
	tree, isInit, err := r.route(owner)
	if err != nil {
		return nil, false, err
	}
	if isInit {
		return r.rep.Get(tree, compositeKey(owner, key))
	}
	return r.rep.Get(tree, key)
}

// Scan iterates owner's keys in [from, to), like Forest.Scan.
func (r *Replica) Scan(owner OwnerID, from, to []byte, limit int, fn func(key, value []byte) bool) error {
	tree, isInit, err := r.route(owner)
	if err != nil {
		return err
	}
	if !isInit {
		return r.rep.Scan(tree, from, to, limit, fn)
	}
	lo, hi := ownerRange(owner, from, to)
	return r.rep.Scan(tree, lo, hi, limit, func(k, v []byte) bool {
		return fn(k[8:], v)
	})
}

// BufferedRecords exposes the lazy-replay backlog of the page replica.
func (r *Replica) BufferedRecords() int { return r.rep.BufferedRecords() }

// LoadSnapshot bootstraps the replica's directories from a snapshot: the
// INIT tree ID and the owner assignments. Per-tree page state is installed
// separately via LoadTreeSnapshot.
func (r *Replica) LoadSnapshot(init bwtree.TreeID, assignments []OwnerAssignment) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.init = init
	for _, a := range assignments {
		r.owners[a.Owner] = a.Tree
	}
}

// LoadTreeSnapshot installs one tree's leaf directory and durable page
// locations, delegating to the underlying page replica.
func (r *Replica) LoadTreeSnapshot(tree bwtree.TreeID, leaves []bwtree.LeafInfo) error {
	return r.rep.LoadTreeSnapshot(tree, leaves)
}

// SetHighLSN initializes the WAL horizon after a snapshot bootstrap.
func (r *Replica) SetHighLSN(l wal.LSN) { r.rep.SetHighLSN(l) }
