package storage

import "fmt"

// Cursor marks a position in a stream for sequential tailing. The zero
// Cursor points at the beginning of the stream. Cursors remain valid across
// extent reclamation and TTL expiry: scanning simply resumes at the next
// surviving extent. A trim (DropBefore) is a hole instead: see ErrTrimmed.
type Cursor struct {
	Extent ExtentID
	Index  int // record index within the extent
}

// Entry is one record yielded by Scan.
type Entry struct {
	Loc  Loc
	Tag  uint64
	Data []byte
}

// Scan returns up to max records appended at or after the cursor, in append
// order, along with the cursor positioned after the last returned record.
// max <= 0 means no limit. A scan counts as a single sequential read
// operation regardless of batch size — tailing a log is the cheap access
// pattern the WAL design of §3.4 exploits.
func (s *Store) Scan(id StreamID, cur Cursor, max int) ([]Entry, Cursor, error) {
	st, err := s.stream(id)
	if err != nil {
		return nil, cur, err
	}
	var lost func(ExtentID) bool
	if p := s.opts.Faults; p != nil {
		spike, ferr := p.readDecision(id, cur.Extent)
		pause(spike)
		if ferr != nil {
			return nil, cur, ferr
		}
		lost = func(ext ExtentID) bool { return p.extentLost(id, ext) }
	}
	pause(s.opts.ReadLatency)
	entries, next, err := st.scan(cur, max, lost)
	if err != nil {
		return entries, next, err
	}
	var bytes int64
	for _, e := range entries {
		bytes += int64(len(e.Data))
	}
	if len(entries) > 0 {
		s.readOps.Add(1)
		s.bytesRead.Add(bytes)
	}
	return entries, next, nil
}

// TailCursor returns the cursor positioned after the last record currently
// in the stream: a Scan from it yields only records appended later.
func (s *Store) TailCursor(id StreamID) Cursor {
	st, err := s.stream(id)
	if err != nil {
		return Cursor{}
	}
	st.mu.RLock()
	defer st.mu.RUnlock()
	if len(st.order) == 0 {
		return Cursor{}
	}
	last := st.order[len(st.order)-1]
	e := st.extents[last]
	if e == nil {
		return Cursor{Extent: last + 1}
	}
	if e.sealed {
		return Cursor{Extent: last + 1}
	}
	return Cursor{Extent: last, Index: len(e.records)}
}

// DropBefore removes every sealed extent of the stream with ID below
// bound — WAL truncation — and returns the dropped extent IDs. A later Scan
// from a cursor short of the end of one of them fails with ErrTrimmed.
// horizon is the caller's word on what survives, kept as stream metadata
// beside the fence epoch (Head): every record the stream's owner numbers above
// it is at or after the new head, and epoch the fence epoch it is given under:
// a record above it stamped lower is debris of a failed pipelined commit. Both
// move forward only, and only with a drop.
func (s *Store) DropBefore(id StreamID, bound ExtentID, horizon, epoch uint64) []ExtentID {
	st, err := s.stream(id)
	if err != nil {
		return nil
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	var dropped []ExtentID
	remaining := st.order[:0]
	for _, eid := range st.order {
		e := st.extents[eid]
		if e != nil && e.sealed && eid < bound {
			delete(st.extents, eid)
			dropped = append(dropped, eid)
			st.trimmed = Cursor{Extent: eid, Index: len(e.records)}
			continue
		}
		remaining = append(remaining, eid)
	}
	st.order = remaining
	if len(dropped) > 0 && horizon > st.horizon {
		st.horizon, st.headEpoch = horizon, epoch
	}
	return dropped
}

// Head returns the stream's retained head — the cursor a Scan of everything
// still there starts from — and the horizon its last trim declared with the
// epoch it was declared under (0: never trimmed).
func (s *Store) Head(id StreamID) (cur Cursor, horizon, epoch uint64) {
	st, err := s.stream(id)
	if err != nil {
		return Cursor{}, 0, 0
	}
	st.mu.RLock()
	defer st.mu.RUnlock()
	return st.trimmed, st.horizon, st.headEpoch
}

// scan collects records at or after cur. lost, when non-nil, reports
// extents the fault plan has destroyed: hitting one aborts the scan with
// ErrExtentLost and a cursor parked on the lost extent, so the caller can
// surface the gap (a tailing follower re-attaches from the head). A cursor
// short of the end of a trimmed extent fails the same way, with ErrTrimmed.
func (s *stream) scan(cur Cursor, max int, lost func(ExtentID) bool) ([]Entry, Cursor, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if t := s.trimmed; cur.Extent < t.Extent || (cur.Extent == t.Extent && cur.Index < t.Index) {
		return nil, cur, fmt.Errorf("storage: scan %v at %d/%d: %w", s.id, cur.Extent, cur.Index, ErrTrimmed)
	}
	var out []Entry
	for _, id := range s.order {
		if id < cur.Extent {
			continue
		}
		if lost != nil && lost(id) {
			return out, Cursor{Extent: id}, fmt.Errorf("storage: scan %v/%d: %w", s.id, id, ErrExtentLost)
		}
		e := s.extents[id]
		if e == nil {
			continue
		}
		start := 0
		if id == cur.Extent {
			start = cur.Index
		}
		for i := start; i < len(e.records); i++ {
			r := e.records[i]
			data := make([]byte, r.len)
			copy(data, e.buf[r.off:r.off+r.len])
			out = append(out, Entry{
				Loc:  Loc{Stream: s.id, Extent: id, Offset: r.off, Length: r.len},
				Tag:  r.tag,
				Data: data,
			})
			cur = Cursor{Extent: id, Index: i + 1}
			if max > 0 && len(out) >= max {
				return out, cur, nil
			}
		}
		if e.sealed {
			cur = Cursor{Extent: id + 1, Index: 0}
		} else {
			// The active extent may still grow; leave the cursor parked
			// after its last record so later appends are picked up.
			cur = Cursor{Extent: id, Index: len(e.records)}
		}
	}
	return out, cur, nil
}
