package bg3

// Failover deposes the current leader and promotes a follower over the same
// shared store — the recovery path for a crashed or hung RW node, and a drill
// for practicing it (§3.4's single-writer architecture made survivable). The
// sequence:
//
//  1. Fence: a new epoch is claimed on the WAL stream. From that instant
//     every append still carried by the old leader fails with an error
//     wrapping storage.ErrFenced: in-flight writes surface the failure to
//     their callers instead of being silently lost, and the old leader's
//     writer fail-stops.
//  2. Drain: a follower attached from the retained head of the log applies
//     the durable WAL tail, every write acknowledged before the fence, the
//     way every replica does.
//  3. Take over: that follower's page table becomes the leader's, in place,
//     appending at the new epoch. Nothing is rewritten; pages keep their IDs.
//
// The DB routes subsequent reads and writes to the promoted leader. Attached
// replicas are not disturbed: they keep tailing the same log and need no
// resync. Writes issued concurrently with Failover either commit durably (they
// beat the fence and the drain carries them over) or fail with ErrFenced /
// wal.ErrWriterFailed — never silent loss. A hole in the retained log (a
// lost extent) fails the promotion rather than start a leader
// that is missing acknowledged writes. On a DB opened without
// Options.Replicated it returns ErrNotReplicated.
func (db *DB) Failover() error {
	if db.ls == nil {
		return ErrNotReplicated
	}
	return db.ls.failover(0)
}

// Epoch returns the WAL fence epoch the current leader appends under: 0
// until the first failover, incremented by each one. Always 0 on a
// non-replicated DB.
func (db *DB) Epoch() uint64 {
	if rw := db.leader(); rw != nil {
		return rw.Epoch()
	}
	return 0
}

// Failovers returns how many times this DB has promoted a new leader.
func (db *DB) Failovers() int64 {
	if db.ls == nil {
		return 0
	}
	return db.ls.group.Failovers()
}
