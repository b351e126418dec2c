package replication

import (
	"fmt"
	"time"

	"bg3/internal/metrics"
	"bg3/internal/storage"
)

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
//  2. Drain. Stop the follower's poll loop and synchronously replay the
//     durable WAL tail. Everything the old leader persisted before the
//     fence is acknowledged-or-in-doubt state and must survive; after the
//     fence the tail is frozen, so one drain reads all of it.
//  3. Rebuild. Reconstruct a live RW engine from the durable state
//     (snapshot + WAL suffix — the RecoverRWNode machinery) with a writer
//     holding exactly the claimed epoch, resume the LSN sequence past the
//     highest durable record, and publish a fresh snapshot so followers can
//     bootstrap onto the new leader's page-ID space.
//
// The follower keeps serving reads from its caught-up replica after Promote
// returns; followers attached to the old leader should call Resync to adopt
// the new leader's snapshot. Like RecoverRWNode, Promote requires at least
// one snapshot on the store. If a competing promotion claims a higher epoch
// concurrently, exactly one candidate ends up able to append — the loser's
// node fails with an error wrapping storage.ErrFenced on its first write.
func Promote(ro *RONode, opts RWOptions) (*RWNode, error) {
	if ro == nil {
		return nil, fmt.Errorf("replication: promote: nil follower")
	}
	st := ro.store
	epoch, err := st.AdvanceStreamEpoch(storage.StreamWAL)
	if err != nil {
		return nil, fmt.Errorf("replication: promote: fence: %w", err)
	}
	ro.Stop()
	if err := ro.Poll(); err != nil {
		return nil, fmt.Errorf("replication: promote: drain: %w", err)
	}
	rw, err := recoverRWNodeAtEpoch(st, opts, epoch)
	if err != nil {
		return nil, fmt.Errorf("replication: promote: %w", err)
	}
	metrics.Faults.Recoveries.Inc()
	return rw, nil
}

// Failover deposes old and installs a freshly promoted leader on the same
// store — the one promotion sequence every deployment shape runs:
// best-effort snapshot through the old leader (so the promotion has a
// bootstrap point even if none was ever written; a dead or already-fenced
// leader fails this harmlessly and the last snapshot is used), attach a
// transient follower, Promote it, hand the new leader to swap, stop the
// old one. swap publishes the promoted leader wherever the owner routes
// from and reports false when old is no longer the owner's leader (the
// owner closed, or another failover won); the promoted node is then
// stopped and the error wraps storage.ErrFenced. Writes issued during the
// switch either commit durably before the fence or fail with errors
// wrapping storage.ErrFenced / wal.ErrWriterFailed — never silent loss;
// the caller retries against the new leader.
func Failover(st *storage.Store, old *RWNode, swap func(promoted *RWNode) bool) error {
	_, _ = old.WriteSnapshot()
	// The transient follower exists only to be promoted; Promote stops its
	// poll loop immediately, so the interval never fires.
	ro, err := NewRONodeFromSnapshot(st, time.Hour, 0)
	if err != nil {
		return fmt.Errorf("replication: failover: %w", err)
	}
	rw, err := Promote(ro, old.opts)
	if err != nil {
		return fmt.Errorf("replication: failover: %w", err)
	}
	if !swap(rw) {
		rw.Stop()
		return fmt.Errorf("replication: failover: %w", storage.ErrFenced)
	}
	old.Stop()
	return nil
}
