package storage

import (
	"cmp"
	"slices"
	"sync"
)

// batchGroup is the unit of one storage round trip inside a ReadBatch: all
// requested records that live in the same extent of the same stream. The
// group is served by a single extent access (one latency charge, one lock
// acquisition) regardless of how many records it covers.
type batchGroup struct {
	stream StreamID
	extent ExtentID
	idx    []int // positions in the caller's loc slice
}

// ReadBatch reads every record in locs, in place like Read, and returns them
// in the same order. It is the concurrent multi-read API of the read path:
// Locs that land in the same extent are coalesced into one extent access,
// and distinct extents are fetched by parallel goroutines, so the caller
// pays the simulated cloud-storage ReadLatency once per overlapping round
// trip instead of once per Loc. The Bw-tree materialize path uses it to fetch a
// page's base image and delta chain in a single overlapped round trip.
//
// Like Read, ReadBatch works on a closed store so draining readers can
// finish. An error on any round trip fails the whole batch; the first
// failing group (in group order) wins.
func (s *Store) ReadBatch(locs []Loc) ([][]byte, error) {
	out, errs := s.ReadBatchEach(locs, nil)
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
// is returned. It appends one view per loc to out and returns the extended
// slice, so a caller that reads batch after batch keeps one slice for all of
// them; bufs[len(out)+i] is locs[i]'s record, nil where its round trip
// failed. errs is nil when every round trip succeeded; otherwise errs[i] is
// the error of the round trip locs[i] rode.
func (s *Store) ReadBatchEach(locs []Loc, out [][]byte) (bufs [][]byte, errs []error) {
	if len(locs) == 0 {
		return out, nil
	}
	bufs = slices.Grow(out, len(locs))[:len(out)+len(locs)]
	out = bufs[len(out):]
	b := batchPool.Get().(*batchScratch)
	defer batchPool.Put(b)
	groups := b.group(locs)

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
		return bufs, errs
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
	return bufs, errs
}

// batchScratch is the grouping of one ReadBatchEach, kept across calls in
// batchPool: idx is the index arena — every position of the caller's locs,
// ordered group by group — and each group's idx is its run of it. It holds
// no pointer into the store, so it goes back to the pool as it is.
type batchScratch struct {
	idx    []int
	groups []batchGroup
}

var batchPool = sync.Pool{New: func() any { return new(batchScratch) }}

// group buckets locs by (stream, extent): groups in order of first
// appearance, input order within each. It sorts the positions by (stream,
// extent, position) and cuts the sorted arena into runs, one per group, so a
// page's own batch (a base record and its delta chain, a handful of locs) and
// a traversal hop's (hundreds, over a few extents) take the same O(n log n)
// path, with no map and no per-group slice. A run's first position is the
// group's first appearance, which orders the groups.
func (b *batchScratch) group(locs []Loc) []batchGroup {
	b.idx = b.idx[:0]
	for i := range locs {
		b.idx = append(b.idx, i)
	}
	slices.SortFunc(b.idx, func(i, j int) int {
		return cmp.Or(cmp.Compare(locs[i].Stream, locs[j].Stream), cmp.Compare(locs[i].Extent, locs[j].Extent), cmp.Compare(i, j))
	})
	b.groups = b.groups[:0]
	for lo := 0; lo < len(b.idx); {
		l := locs[b.idx[lo]]
		hi := lo + 1
		for hi < len(b.idx) && locs[b.idx[hi]].Stream == l.Stream && locs[b.idx[hi]].Extent == l.Extent {
			hi++
		}
		b.groups = append(b.groups, batchGroup{stream: l.Stream, extent: l.Extent, idx: b.idx[lo:hi:hi]})
		lo = hi
	}
	slices.SortFunc(b.groups, func(x, y batchGroup) int { return cmp.Compare(x.idx[0], y.idx[0]) })
	return b.groups
}

// readGroup performs one coalesced round trip: fault decision and latency
// are charged once for the group, then every record is read under a single
// lock acquisition. ReadOps still counts one per record — it is the logical
// read-amplification measure the Fig. 9 experiments compare policies with;
// the coalescing shows up in BatchRoundTrips (and in wall time, via the
// single latency charge).
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

// readMulti reads the records at locs[idx...] out of one extent, in place
// (extent.view), under a single lock acquisition. Results land in out at the
// same positions; total accumulates the bytes read.
func (s *stream) readMulti(locs []Loc, idx []int, out [][]byte, total *int64) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	e, ok := s.extents[locs[idx[0]].Extent]
	if !ok {
		return ErrReclaimed
	}
	for _, i := range idx {
		var err error
		if out[i], err = e.view(locs[i]); err != nil {
			return err
		}
		*total += int64(locs[i].Length)
	}
	return nil
}
