package bg3

import (
	"slices"

	"bg3/internal/graph"
	"bg3/internal/replication"
)

// Replica is a read-only view of a replicated DB: one follower node per
// shard, each tailing its shard's write-ahead log on the shared store, with
// reads routed by the vertex hash like the DB's. It serves strongly
// consistent reads: any write acknowledged by the DB becomes visible on
// every replica within the WAL shipping delay, with no data loss regardless
// of network conditions (§3.4). More replicas scale read throughput.
type Replica struct {
	// reads is the scale-out read path: every read and traversal runs on the
	// followers. It holds the router's reader as the value it is, so a hop
	// reaches its graph.FrontierReader and is one batched read per shard.
	reads
	db  *DB
	ros []*replication.RONode // one per shard
}

// OpenReplica attaches a new replica, each of its followers attached from
// the retained head of its shard's WAL: from LSN 1 on a log never trimmed,
// else the checkpoint rotation past the trim and the log after it. Each read
// re-fetches the owning follower's page table, because a resync (a trim that
// outran the follower) replaces it wholesale.
func (db *DB) OpenReplica() (*Replica, error) {
	if db.group == nil {
		return nil, ErrNotReplicated
	}
	r := &Replica{db: db}
	r.reads = reads{db.group.Router().Reader(func(i int) graph.Reader { return r.ros[i].Replica() })}
	for i := range db.group.Shards() {
		ro, err := replication.NewRONode(db.group.Store(i), db.cfg.followerPoll, db.cfg.followerCache)
		if err != nil {
			r.Stop()
			return nil, err
		}
		r.ros = append(r.ros, ro)
	}
	db.mu.Lock()
	db.replicas = append(db.replicas, r)
	db.mu.Unlock()
	return r, nil
}

// Stop detaches the replica: the DB no longer counts it, and its followers
// stop tailing and hold no extent GC condemned any more.
func (r *Replica) Stop() {
	r.db.mu.Lock()
	r.db.replicas = slices.DeleteFunc(r.db.replicas, func(o *Replica) bool { return o == r })
	r.db.mu.Unlock()
	for _, ro := range r.ros {
		ro.Stop()
	}
}

// Sync drains every shard's WAL so subsequent reads reflect every write the
// DB has acknowledged so far.
func (r *Replica) Sync() error {
	for _, ro := range r.ros {
		if err := ro.Poll(); err != nil {
			return err
		}
	}
	return nil
}

// AppliedLSN returns the highest WAL LSN the replica has applied of shard i.
func (r *Replica) AppliedLSN(i int) uint64 { return uint64(r.ros[i].AppliedLSN()) }

// Resyncs returns how many times a follower of the replica re-attached after
// a WAL trim or lost extent outran its tailing.
func (r *Replica) Resyncs() int64 {
	var n int64
	for _, ro := range r.ros {
		n += ro.Resyncs()
	}
	return n
}

func (db *DB) attached() []*Replica {
	db.mu.Lock()
	defer db.mu.Unlock()
	return slices.Clone(db.replicas)
}

// lag returns the worst applied-LSN lag of any attached follower behind its
// shard leader's last assigned LSN.
func (db *DB) lag() uint64 {
	var worst uint64
	for _, r := range db.attached() {
		for i, ro := range r.ros {
			if last, applied := uint64(db.group.Leader(i).LastLSN()), uint64(ro.AppliedLSN()); applied < last {
				worst = max(worst, last-applied)
			}
		}
	}
	return worst
}

// resyncs counts re-attaches across the attached replicas.
func (db *DB) resyncs() int64 {
	var n int64
	for _, r := range db.attached() {
		n += r.Resyncs()
	}
	return n
}
