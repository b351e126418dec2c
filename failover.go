package bg3

// Failover deposes the current leader and promotes a fresh follower over
// the same shared store — the recovery path for a crashed or hung RW node,
// and a drill for practicing it (§3.4's single-writer architecture made
// survivable). The sequence:
//
//  1. A new fence epoch is claimed on the WAL stream. From that instant
//     every append still carried by the old leader fails with an error
//     wrapping storage.ErrFenced: in-flight writes surface the failure to
//     their callers instead of being silently lost, and the old leader's
//     writer fail-stops.
//  2. A follower bootstraps from the latest snapshot, drains the durable
//     WAL tail (every write acknowledged before the fence), and is rebuilt
//     into a live RW engine appending at the new epoch.
//  3. The DB atomically routes subsequent reads and writes to the promoted
//     leader, and attached replicas re-bootstrap onto its fresh snapshot.
//
// Writes issued concurrently with Failover either commit durably (they beat
// the fence and the promoted leader replays them) or fail with ErrFenced /
// wal.ErrWriterFailed — never silent loss. Like crash recovery, promotion
// needs at least one snapshot on the store; Failover writes one through the
// old leader on a best-effort basis, which succeeds whenever that leader is
// still healthy. On a DB opened without Options.Replicated it returns
// ErrNotReplicated.
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
