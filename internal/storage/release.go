package storage

import "slices"

// The release rule. An extent GC reclaimed is condemned: out of usage and
// space accounting, still readable, because a follower may hold page
// locations in it until it applies the checkpoint naming their new ones
// (§3.4). The leader stamps it with that checkpoint's LSN (Stamp); it is
// released once no follower registered with the store (Follow) has applied
// less. A store whose WAL was never written to has no follower that could
// hold a location, and releases at reclaim. No release decision reads a clock.

// condemnation is a condemned extent's place in the rule: seq orders it among
// the store's condemnations (CondemnMark), stamp is the LSN of the checkpoint
// that logged its relocations, 0 until one has.
type condemnation struct{ seq, stamp uint64 }

// Follower is a reader of the store's log that holds releases back: no extent
// stamped above what it applied is released while it is registered.
type Follower struct {
	s       *Store
	applied uint64 // under s.relMu
}

// logged reports whether anything was ever appended to the store's WAL. It
// takes no lock, so a stream decides under its own mu.
func (s *Store) logged() bool { return s.walWritten.Load() }

// condemn numbers the next condemnation. Caller holds the condemning stream's
// mu, so a Stamp with a mark covering it finds it condemned.
func (s *Store) condemn() condemnation { return condemnation{seq: s.condemnSeq.Add(1)} }

// Follow registers a follower that has applied nothing yet: until it reports
// (Applied) it holds every stamped extent. Register before reading the log.
func (s *Store) Follow() *Follower {
	f := &Follower{s: s}
	s.relMu.Lock()
	defer s.relMu.Unlock()
	s.followers[f] = struct{}{}
	return f
}

// Applied reports that the follower applied the log through lsn, every page
// a checkpoint up to it names repointed, and releases what that lets go.
func (f *Follower) Applied(lsn uint64) {
	f.s.relMu.Lock()
	defer f.s.relMu.Unlock()
	f.applied = lsn
	f.s.releaseLocked()
}

// Leave deregisters the follower and releases what it alone held.
func (f *Follower) Leave() {
	f.s.relMu.Lock()
	defer f.s.relMu.Unlock()
	delete(f.s.followers, f)
	f.s.releaseLocked()
}

// CondemnMark returns a mark covering every extent condemned so far. A reclaim
// relocates before it condemns, so a leader that takes the mark and then
// collects GC's relocations logs those of every extent up to the mark.
func (s *Store) CondemnMark() uint64 { return s.condemnSeq.Load() }

// Stamp stamps every unstamped extent condemned up to mark with lsn, the
// checkpoint that logged their relocations, and releases what no follower
// holds.
func (s *Store) Stamp(mark, lsn uint64) {
	s.eachCondemned(func(st *stream, id ExtentID, c condemnation) {
		if c.stamp == 0 && c.seq <= mark {
			st.condemned[id] = condemnation{c.seq, lsn}
		}
	})
}

// Reinstate makes every condemned extent no checkpoint stamped resident
// again. A leader taking over holds the last checkpoint's locations, which
// may point into them; its GC reclaims them again like any other.
func (s *Store) Reinstate() {
	s.eachCondemned(func(st *stream, id ExtentID, c condemnation) {
		if c.stamp == 0 {
			delete(st.condemned, id)
			st.order = append(st.order, id)
			slices.Sort(st.order)
		}
	})
}

// eachCondemned calls fn on every condemned extent under the release lock,
// then releases what no follower holds.
func (s *Store) eachCondemned(fn func(st *stream, id ExtentID, c condemnation)) {
	s.relMu.Lock()
	defer s.relMu.Unlock()
	s.sweepLocked(fn)
	s.releaseLocked()
}

// releaseLocked releases every stamped extent no registered follower has
// applied less than. Caller holds relMu.
func (s *Store) releaseLocked() {
	floor := ^uint64(0)
	for f := range s.followers {
		floor = min(floor, f.applied)
	}
	s.sweepLocked(func(st *stream, id ExtentID, c condemnation) {
		if c.stamp != 0 && c.stamp <= floor {
			delete(st.condemned, id)
			delete(st.extents, id)
		}
	})
}

// sweepLocked calls fn on every condemned extent under its stream's mu.
// Caller holds relMu.
func (s *Store) sweepLocked(fn func(st *stream, id ExtentID, c condemnation)) {
	for _, st := range s.streams {
		st.mu.Lock()
		for id, c := range st.condemned {
			fn(st, id, c)
		}
		st.mu.Unlock()
	}
}
