package replication

import (
	"fmt"

	"bg3/internal/core"
	"bg3/internal/mvcc"
	"bg3/internal/storage"
	"bg3/internal/wal"
)

// A store has one way of turning its log into a leader's pages: a follower
// applies it (RONode.Poll) and is handed the leader's role behind a fence of
// its own (RONode.promote). A promotion is that for a follower of a live leader
// (Promote); a restart after a crash is that for a follower attached for the
// purpose (RecoverRWNode). Page and tree IDs survive either and nothing is
// rewritten, so the followers of the old leader go on tailing the new one's
// records.

// RecoverRWNode reopens the read-write node of an existing store after a
// restart: a follower attached from the retained head of the log is promoted
// behind a fence of its own, like any other. Followers of the node that died,
// and fresh ones, tail the recovered node as they did its predecessor.
func RecoverRWNode(st *storage.Store, opts RWOptions) (*RWNode, error) {
	ro, err := attach(st, opts.Engine.Tree.CacheCapacity)
	if err != nil {
		return nil, err
	}
	return ro.promote(opts)
}

// Promote turns a read-only follower into the new leader after the old one
// crashed or must be deposed — the missing half of the paper's single-RW,
// many-RO architecture (§3.4). The sequence is the BtrLog one:
//
//  1. Fence. Claim a fresh epoch on the WAL stream (AdvanceStreamEpoch).
//     From this instant the shared store rejects every append carrying the
//     old leader's token with ErrFenced, so a deposed leader that is still
//     running — or merely slow — cannot extend the log. Its writer
//     fail-stops on the first rejected append and every in-flight commit
//     surfaces the error to its caller instead of being silently lost.
//  2. Apply. With the follower's poll loop stopped, apply the durable WAL
//     tail through its own reader. Everything the old leader persisted
//     before the fence is acknowledged-or-in-doubt state and must survive;
//     after the fence the tail is frozen, so one poll reads all of it.
//  3. Take over. The follower's page table and forest become the leader's,
//     with a writer holding exactly the claimed epoch.
//
// ro is consumed: it must serve no reads while it is promoted, and afterwards
// polls no more. The other followers of the old leader need nothing. If a
// competing promotion claims a higher epoch concurrently, exactly one
// candidate ends up able to append — the loser's node fails with an error
// wrapping storage.ErrFenced on its first write.
func Promote(ro *RONode, opts RWOptions) (*RWNode, error) {
	if ro == nil {
		return nil, fmt.Errorf("replication: promote: nil follower")
	}
	ro.Stop()
	return ro.promote(opts)
}

// promote is the one hand-over: it fences the WAL stream, applies the log to
// its end, which the fence froze, and makes the follower the leader appending
// under the claimed epoch — the replica becomes the engine in place
// (core.Replica.TakeOver), the writer resumes the LSN sequence past the last
// record applied. The node stops being a follower: it polls no more, and reads
// through its replica see the leader's state.
//
// Records the log lost (a trim past the follower, a lost extent) and a hole
// fail the hand-over; the node then stays the follower it was.
func (n *RONode) promote(opts RWOptions) (*RWNode, error) {
	n.pollMu.Lock()
	defer n.pollMu.Unlock()
	if n.reader == nil {
		return nil, fmt.Errorf("replication: promote: %w", errPromoted)
	}
	epoch, err := n.store.AdvanceStreamEpoch(storage.StreamWAL)
	if err != nil {
		return nil, fmt.Errorf("replication: promote: fence: %w", err)
	}
	if _, err := n.Replica().ApplyFrom(n.reader); err != nil {
		return nil, fmt.Errorf("replication: promote: apply the WAL beyond lsn %d: %w", n.AppliedLSN(), err)
	}
	// The writer resumes behind the last record applied, so assembly seeds
	// the epoch clock at that horizon. A candidate that lost a promotion race
	// holds a stale token and fails ErrFenced on its first append instead of
	// silently adopting the winner's.
	writer := wal.NewWriterFromEpoch(n.store, n.reader.LastLSN()+1, epoch)
	n.reader = nil // the leader's from here, or nobody's
	// A leader holds no floor. It holds the last checkpoint's locations,
	// though, and those may point into extents its predecessor condemned but
	// never stamped: they become resident again, for its GC to reclaim.
	n.floor.Leave()
	n.store.Reinstate()
	src := mvcc.NewSource(0)
	rw, err := assembleRWNode(n.store, opts, writer, src, func(logger *wal.GroupCommitter) (*core.Engine, error) {
		return n.Replica().TakeOver(n.store, opts.engineOptions(src, logger))
	})
	if err != nil {
		return nil, fmt.Errorf("replication: promote: %w", err)
	}
	return rw, nil
}

// Failover deposes old and installs a freshly promoted leader on the same
// store — the one promotion sequence every deployment shape runs: attach a
// follower, fence old's GC, promote the follower, hand the new leader to swap,
// stop the old one, whose open snapshots keep reading what it knew. The GC
// fence comes before the promotion reinstates what no checkpoint stamped:
// every extent old's GC condemned is then either stamped by old's own
// checkpoint, which logged the relocations, or resident again for the
// successor, whose mapping still points into it. swap
// publishes the promoted leader wherever the owner routes from and reports
// false when old is no longer the owner's leader (the owner closed, or
// another failover won); the promoted node is then stopped and the error
// wraps storage.ErrFenced. Writes issued during the switch either commit
// durably before the fence or fail with errors wrapping storage.ErrFenced /
// wal.ErrWriterFailed — never silent loss; the caller retries against the
// new leader.
func Failover(st *storage.Store, old *RWNode, swap func(promoted *RWNode) bool) error {
	ro, err := attach(st, old.opts.Engine.Tree.CacheCapacity)
	if err != nil {
		return fmt.Errorf("replication: failover: %w", err)
	}
	old.engine.FenceGC()
	rw, err := ro.promote(old.opts)
	if err != nil {
		return fmt.Errorf("replication: failover: %w", err)
	}
	if !swap(rw) {
		rw.Stop()
		return fmt.Errorf("replication: failover: %w", storage.ErrFenced)
	}
	// Until its last pin closes, old holds releases like a follower that
	// applies nothing more: its snapshots read the locations it last knew.
	held := st.Follow()
	held.Applied(uint64(rw.LastLSN())) // the drained end: every new stamp is above it
	old.engine.Epochs().WhenUnpinned(held.Leave)
	old.Stop()
	return nil
}
