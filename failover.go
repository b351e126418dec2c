package bg3

import "fmt"

// Failover deposes shard i's current leader and promotes a follower over the
// same shared store — the recovery path for a crashed or hung RW node, and a
// drill for practicing it (§3.4's single-writer architecture made
// survivable). The sequence:
//
//  1. Fence: a new epoch is claimed on the shard's WAL stream. From that
//     instant every append still carried by the old leader fails with an
//     error wrapping storage.ErrFenced: in-flight writes surface the failure
//     to their callers instead of being silently lost, and the old leader's
//     writer fail-stops.
//  2. Drain: a follower attached from the retained head of the log applies
//     the durable WAL tail, every write acknowledged before the fence, the
//     way every replica does.
//  3. Take over: that follower's page table becomes the leader's, in place,
//     appending at the new epoch. Nothing is rewritten; pages keep their IDs.
//
// The DB routes subsequent reads and writes of the shard to the promoted
// leader; other shards keep serving, and in-doubt cross-shard prepares on the
// shard are settled against their coordinators. Attached replicas are not
// disturbed: they keep tailing the same log and need no resync. Snapshots
// pinned on the deposed leader stay exact (their horizons exclude anything
// the fence cut off). Writes issued concurrently with Failover either commit
// durably (they beat the fence and the drain carries them over) or fail with
// ErrFenced / wal.ErrWriterFailed — never silent loss. A hole in the retained
// log (a lost extent) fails the promotion rather than start a leader that is
// missing acknowledged writes. On a bare engine it returns ErrNotReplicated.
func (db *DB) Failover(i int) error {
	if db.group == nil {
		return ErrNotReplicated
	}
	return db.group.Failover(i)
}

// Epoch returns the WAL fence epoch shard i's current leader appends under: 0
// until the shard's first failover, incremented by each one. Always 0 on a
// bare engine.
func (db *DB) Epoch(i int) uint64 {
	if rw := db.leader(i); rw != nil {
		return rw.Epoch()
	}
	return 0
}

// Failovers returns how many times this DB has promoted a new leader, over
// all shards.
func (db *DB) Failovers() int64 {
	if db.group == nil {
		return 0
	}
	return db.group.Failovers()
}

// WriteSnapshot completes a checkpoint rotation on every shard now: enough
// checkpoints in a row that together they name every page, after which the
// WAL before the first is trimmed and a replica opened afterwards reads the
// log from there. The flusher does the same on its own cadence. On a bare
// engine it returns ErrNotReplicated.
func (db *DB) WriteSnapshot() error {
	if db.group == nil {
		return ErrNotReplicated
	}
	for i := range db.Shards() {
		if _, err := db.leader(i).WriteSnapshot(); err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
	}
	return nil
}

// TrimWAL trims every shard's WAL before its last checkpoint rotation now,
// returning the number of extents freed. Every checkpoint already does; a
// replica the trim outran re-attaches on its next Sync.
func (db *DB) TrimWAL() int {
	n := 0
	for i := range db.Shards() {
		if rw := db.leader(i); rw != nil {
			n += rw.TrimWAL()
		}
	}
	return n
}
