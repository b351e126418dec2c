package bg3

// WriteSnapshot completes a checkpoint rotation now: enough checkpoints in a
// row that together they name every page, after which the WAL before the
// first is trimmed and a replica opened afterwards reads the log from there.
// The flusher does the same on its own cadence. Only valid on a replicated DB.
func (db *DB) WriteSnapshot() error {
	if db.leader() == nil {
		return ErrNotReplicated
	}
	_, err := db.leader().WriteSnapshot()
	return err
}

// TrimWAL trims the WAL before the last checkpoint rotation now, returning
// the number of extents freed. Every checkpoint already does; a replica the
// trim outran re-attaches on its next Sync.
func (db *DB) TrimWAL() int {
	if db.leader() == nil {
		return 0
	}
	return db.leader().TrimWAL()
}

// Replica is a read-only BG3 node attached to a replicated DB. It tails
// the write-ahead log on the shared store and serves strongly consistent
// reads: any write acknowledged by the DB becomes visible on every
// replica within the WAL shipping delay, with no data loss regardless of
// network conditions (§3.4).
type Replica struct {
	reads            // the scale-out read path: every read and traversal runs on the replica
	f     *followers // the one-shard follower set
}

// OpenReplica attaches a new read-only replica. The DB must have been
// opened with Options.Replicated.
func (db *DB) OpenReplica() (*Replica, error) {
	if db.ls == nil {
		return nil, ErrNotReplicated
	}
	f, err := db.ls.attach()
	if err != nil {
		return nil, err
	}
	return &Replica{reads: reads{f.reader}, f: f}, nil
}

// Stop detaches the replica and halts its WAL tailing.
func (r *Replica) Stop() { r.f.stop() }

// AppliedLSN returns the highest WAL LSN this replica has applied.
func (r *Replica) AppliedLSN() uint64 { return uint64(r.f.ros[0].AppliedLSN()) }

// Resyncs returns how many times the replica re-attached after a WAL trim or
// lost extent outran its tailing.
func (r *Replica) Resyncs() int64 { return r.f.ros[0].Resyncs() }

// Sync synchronously drains the WAL so subsequent reads reflect every
// write the DB has acknowledged so far.
func (r *Replica) Sync() error { return r.f.sync() }
