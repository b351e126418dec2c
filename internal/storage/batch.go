package storage

import "sync"

// batchGroup is the unit of one storage round trip inside a ReadBatch: all
// requested records that live in the same extent of the same stream. The
// group is served by a single extent access (one latency charge, one lock
// acquisition) regardless of how many records it covers.
type batchGroup struct {
	stream StreamID
	extent ExtentID
	idx    []int // positions in the caller's loc slice
}

// ReadBatch reads every record in locs and returns their contents in the
// same order. It is the concurrent multi-read API of the read path: Locs
// that land in the same extent are coalesced into one extent access, and
// distinct extents are fetched by parallel goroutines, so the caller pays
// the simulated cloud-storage ReadLatency once per overlapping round trip
// instead of once per Loc. The Bw-tree materialize path uses it to fetch a
// page's base image and delta chain in a single overlapped round trip.
//
// Like Read, ReadBatch works on a closed store so draining readers can
// finish. An error on any round trip fails the whole batch; the first
// failing group (in group order) wins.
func (s *Store) ReadBatch(locs []Loc) ([][]byte, error) {
	out, errs := s.ReadBatchEach(locs)
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// ReadBatchEach is ReadBatch with per-record failure, for batches that
// span many pages (a traversal hop): a round trip that fails — its extent
// was reclaimed between the caller's location snapshot and the read, or a
// fault hit it — fails only the records riding it, and every other record
// is returned. errs is nil when every round trip succeeded; otherwise
// errs[i] is the error of the round trip locs[i] rode (nil: bufs[i] holds).
func (s *Store) ReadBatchEach(locs []Loc) (bufs [][]byte, errs []error) {
	if len(locs) == 0 {
		return nil, nil
	}
	out := make([][]byte, len(locs))
	groups := groupLocs(locs)

	s.batchReads.Add(1)
	s.batchLocs.Add(int64(len(locs)))
	s.batchRoundTrips.Add(int64(len(groups)))

	fail := func(g batchGroup, err error) {
		if errs == nil {
			errs = make([]error, len(locs))
		}
		for _, i := range g.idx {
			out[i], errs[i] = nil, err
		}
	}
	if len(groups) == 1 || (s.opts.ReadLatency == 0 && s.opts.Faults == nil) {
		// Nothing to overlap: a single round trip, or a store with no
		// simulated latency (and no fault plan that could inject spikes).
		// Spawning goroutines would only add scheduling cost.
		for _, g := range groups {
			if err := s.readGroup(locs, g, out); err != nil {
				fail(g, err)
			}
		}
		return out, errs
	}
	// Each group is an independent round trip against the storage service;
	// issuing them from separate goroutines overlaps their latency exactly
	// like concurrent requests would.
	groupErrs := make([]error, len(groups))
	var wg sync.WaitGroup
	for i, g := range groups {
		wg.Add(1)
		go func(i int, g batchGroup) {
			defer wg.Done()
			groupErrs[i] = s.readGroup(locs, g, out)
		}(i, g)
	}
	wg.Wait()
	for i, err := range groupErrs {
		if err != nil {
			fail(groups[i], err)
		}
	}
	return out, errs
}

// groupLocs buckets locs by (stream, extent), preserving first-appearance
// order of the groups and input order within each group. A page's own
// batch (base + delta chain) is a handful of locs in two extents, and its
// group is found by scanning the groups seen so far — a map and its
// allocation cost more than they save there (2% of a cache-bound load's
// CPU, measured). A
// traversal hop batches hundreds of locs, where that scan would be
// O(locs x groups): past linearGroupLocs the group is found through a map.
func groupLocs(locs []Loc) []batchGroup {
	var byExtent map[extentKey]int
	if len(locs) > linearGroupLocs {
		byExtent = make(map[extentKey]int)
	}
	groups := make([]batchGroup, 0, 2) // a page's batch: the base stream's extent and the delta stream's
	for i, l := range locs {
		gi, ok := byExtent[extentKey{l.Stream, l.Extent}]
		if byExtent == nil {
			for gi = 0; gi < len(groups) && (groups[gi].stream != l.Stream || groups[gi].extent != l.Extent); gi++ {
			}
			ok = gi < len(groups)
		}
		if !ok {
			gi = len(groups)
			groups = append(groups, batchGroup{stream: l.Stream, extent: l.Extent})
			if byExtent != nil {
				byExtent[extentKey{l.Stream, l.Extent}] = gi
			}
		}
		groups[gi].idx = append(groups[gi].idx, i)
	}
	return groups
}

// linearGroupLocs is the largest batch groupLocs groups by linear scan.
const linearGroupLocs = 8

// readGroup performs one coalesced round trip: fault decision and latency
// are charged once for the group, then every record is copied out of the
// extent under a single lock acquisition. ReadOps still counts one per
// record — it is the logical read-amplification measure the Fig. 9
// experiments compare policies with; the coalescing shows up in
// BatchRoundTrips (and in wall time, via the single latency charge).
func (s *Store) readGroup(locs []Loc, g batchGroup, out [][]byte) error {
	st, err := s.stream(g.stream)
	if err != nil {
		return err
	}
	if p := s.opts.Faults; p != nil {
		spike, ferr := p.readDecision(g.stream, g.extent)
		pause(spike)
		if ferr != nil {
			return ferr
		}
	}
	pause(s.opts.ReadLatency)
	var total int64
	if err := st.readMulti(locs, g.idx, out, &total); err != nil {
		return err
	}
	s.readOps.Add(int64(len(g.idx)))
	s.bytesRead.Add(total)
	return nil
}

// readMulti copies the records at locs[idx...] out of one extent under a
// single lock acquisition. Each record gets its own allocation: a caller
// that keeps one record of a hop-wide group (a leaf image installed in the
// page cache) must not pin the buffers of the hundred others read with it.
// Results land in out at the same positions; total accumulates the bytes
// copied.
func (s *stream) readMulti(locs []Loc, idx []int, out [][]byte, total *int64) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	e, ok := s.extents[locs[idx[0]].Extent]
	if !ok {
		return ErrReclaimed
	}
	for _, i := range idx {
		loc := locs[i]
		end := int(loc.Offset) + int(loc.Length)
		if end > len(e.buf) {
			return ErrNotFound
		}
		out[i] = make([]byte, loc.Length)
		copy(out[i], e.buf[loc.Offset:end])
		*total += int64(loc.Length)
	}
	return nil
}
