package replication

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"sync"
	"time"

	"bg3/internal/bwtree"
	"bg3/internal/core"
	"bg3/internal/forest"
	"bg3/internal/metrics"
	"bg3/internal/storage"
	"bg3/internal/wal"
)

// Snapshots let fresh RO nodes attach without replaying the WAL from the
// beginning, and let the RW node truncate the WAL prefix the snapshot
// covers. A snapshot is a group of records in the meta stream — one per
// tree plus a footer — identified by a generation number; the footer
// records the WAL horizon (every record at or below it is reflected in the
// snapshot) and the WAL cursor a bootstrapping replica should tail from.

const (
	snapRecTree   = 1
	snapRecFooter = 2
)

// Snapshot records are sealed with a CRC32 prefix before they hit the meta
// stream: a torn tail-of-extent append persists only a prefix of the
// record, and without a checksum that garbage is indistinguishable from a
// short-but-valid record. Readers drop records whose checksum does not
// cover their payload exactly, the same way the WAL drops torn frames.
func sealSnapRecord(payload []byte) []byte {
	out := make([]byte, 0, 4+len(payload))
	out = binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(payload))
	return append(out, payload...)
}

// openSnapRecord returns the payload of a sealed record, or ok=false for
// torn or foreign data.
func openSnapRecord(data []byte) (payload []byte, ok bool) {
	if len(data) < 5 {
		return nil, false
	}
	if crc32.ChecksumIEEE(data[4:]) != binary.LittleEndian.Uint32(data) {
		return nil, false
	}
	return data[4:], true
}

// metaRetry bounds the retries a snapshot write spends absorbing transient
// storage failures. A snapshot that still fails is harmless — its footer
// never lands, so the previous snapshot stays authoritative — but cheap
// retries keep the snapshot cadence under fault injection.
func metaRetry() storage.RetryPolicy {
	p := storage.DefaultRetry
	p.OnRetry = func(int, error) { metrics.Faults.Retries.Inc() }
	return p
}

// appendMeta appends one sealed snapshot record with bounded retry.
func appendMeta(st *storage.Store, gen uint64, payload []byte) error {
	return metaRetry().Do("replication: snapshot append", func() error {
		_, err := st.Append(storage.StreamMeta, gen, sealSnapRecord(payload))
		return err
	})
}

// snapshotMeta is the decoded footer.
type snapshotMeta struct {
	generation uint64
	horizon    wal.LSN
	treeCount  int
	walCursor  storage.Cursor
}

// encodeTreeSnapshot: kind[1] gen[8] tree[8] hasOwner[1] owner[8] init[1]
// nleaves[4] { loLen[2] lo base[17] nd[2] deltas[17]* }*
func encodeTreeSnapshot(gen uint64, ts core.TreeSnapshot, isInit bool) []byte {
	buf := []byte{snapRecTree}
	buf = binary.LittleEndian.AppendUint64(buf, gen)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(ts.Tree))
	if ts.HasOwner {
		buf = append(buf, 1)
	} else {
		buf = append(buf, 0)
	}
	buf = binary.LittleEndian.AppendUint64(buf, uint64(ts.Owner))
	if isInit {
		buf = append(buf, 1)
	} else {
		buf = append(buf, 0)
	}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(ts.Leaves)))
	for _, lf := range ts.Leaves {
		buf = binary.LittleEndian.AppendUint16(buf, uint16(len(lf.Lo)))
		buf = append(buf, lf.Lo...)
		buf = bwtree.AppendLoc(buf, lf.Base)
		buf = binary.LittleEndian.AppendUint16(buf, uint16(len(lf.Deltas)))
		for _, d := range lf.Deltas {
			buf = bwtree.AppendLoc(buf, d)
		}
	}
	return buf
}

func decodeTreeSnapshot(buf []byte) (gen uint64, ts core.TreeSnapshot, isInit bool, err error) {
	if len(buf) < 31 || buf[0] != snapRecTree {
		return 0, ts, false, fmt.Errorf("replication: malformed tree snapshot record")
	}
	gen = binary.LittleEndian.Uint64(buf[1:])
	ts.Tree = bwtree.TreeID(binary.LittleEndian.Uint64(buf[9:]))
	ts.HasOwner = buf[17] == 1
	ts.Owner = forest.OwnerID(binary.LittleEndian.Uint64(buf[18:]))
	isInit = buf[26] == 1
	n := binary.LittleEndian.Uint32(buf[27:])
	buf = buf[31:]
	for i := uint32(0); i < n; i++ {
		if len(buf) < 2 {
			return 0, ts, false, fmt.Errorf("replication: truncated leaf %d", i)
		}
		loLen := binary.LittleEndian.Uint16(buf)
		buf = buf[2:]
		if len(buf) < int(loLen) {
			return 0, ts, false, fmt.Errorf("replication: truncated leaf lo %d", i)
		}
		var lf bwtree.LeafInfo
		if loLen > 0 {
			lf.Lo = append([]byte(nil), buf[:loLen]...)
		}
		buf = buf[loLen:]
		lf.Base, buf, err = bwtree.ReadLoc(buf)
		if err != nil {
			return 0, ts, false, err
		}
		if len(buf) < 2 {
			return 0, ts, false, fmt.Errorf("replication: truncated delta count %d", i)
		}
		nd := binary.LittleEndian.Uint16(buf)
		buf = buf[2:]
		for j := uint16(0); j < nd; j++ {
			var d storage.Loc
			d, buf, err = bwtree.ReadLoc(buf)
			if err != nil {
				return 0, ts, false, err
			}
			lf.Deltas = append(lf.Deltas, d)
		}
		// Page ID travels in the leaf's Page field appended after deltas in
		// LeafInfo; encode/decode it explicitly below.
		ts.Leaves = append(ts.Leaves, lf)
	}
	return gen, ts, isInit, nil
}

// encodeFooter: kind[1] gen[8] horizon[8] treeCount[4] curExt[8] curIdx[4]
func encodeFooter(m snapshotMeta) []byte {
	buf := []byte{snapRecFooter}
	buf = binary.LittleEndian.AppendUint64(buf, m.generation)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(m.horizon))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(m.treeCount))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(m.walCursor.Extent))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(m.walCursor.Index))
	return buf
}

func decodeFooter(buf []byte) (snapshotMeta, error) {
	if len(buf) != 33 || buf[0] != snapRecFooter {
		return snapshotMeta{}, fmt.Errorf("replication: malformed snapshot footer")
	}
	return snapshotMeta{
		generation: binary.LittleEndian.Uint64(buf[1:]),
		horizon:    wal.LSN(binary.LittleEndian.Uint64(buf[9:])),
		treeCount:  int(binary.LittleEndian.Uint32(buf[17:])),
		walCursor: storage.Cursor{
			Extent: storage.ExtentID(binary.LittleEndian.Uint64(buf[21:])),
			Index:  int(binary.LittleEndian.Uint32(buf[29:])),
		},
	}, nil
}

// snapshotState is tracked per RW node for TrimWAL.
type snapshotState struct {
	mu sync.Mutex
	// attemptGen is bumped before each snapshot attempt so a failed
	// attempt's stray records can never share a generation with a later
	// complete snapshot; lastGen tracks the last published generation.
	attemptGen uint64
	lastGen    uint64
	lastMeta   snapshotMeta
	hasSnap    bool
}

// WriteSnapshot quiesces writes, flushes dirty pages, and persists a full
// snapshot of the engine's durable shape to the meta stream, returning the
// WAL horizon it reflects. Fresh RO nodes created with
// NewRONodeFromSnapshot bootstrap from the latest snapshot; TrimWAL can
// afterwards drop the WAL prefix it covers.
func (n *RWNode) WriteSnapshot() (wal.LSN, error) {
	// One flush cycle with writers quiesced throughout: every assigned LSN
	// is applied and flushed when the state is captured, and the cycle's
	// checkpoint record publishes the flush to existing replicas.
	var state core.SnapshotState
	horizon, cursor, err := n.flushCycle(func() { state = n.engine.SnapshotState() })
	if err != nil {
		return 0, err
	}

	// Generations are unique per attempt (not per horizon): a snapshot
	// aborted by a storage fault leaves durable tree records behind, and a
	// retry at the same horizon must not mix with them.
	n.snap.mu.Lock()
	if n.snap.attemptGen < n.snap.lastGen {
		n.snap.attemptGen = n.snap.lastGen
	}
	if n.snap.attemptGen < uint64(horizon) {
		n.snap.attemptGen = uint64(horizon)
	}
	n.snap.attemptGen++
	gen := n.snap.attemptGen
	n.snap.mu.Unlock()
	// Large trees are chunked so every record fits an extent.
	budget := n.store.ExtentSize() - 256
	if budget < 1024 {
		budget = 1024
	}
	records := 0
	for _, ts := range state.Trees {
		for _, chunk := range chunkLeaves(ts.Leaves, budget) {
			part := ts
			part.Leaves = chunk
			buf := encodeTreeSnapshot(gen, part, ts.Tree == state.Init)
			buf = appendLeafPageIDs(buf, chunk)
			if err := appendMeta(n.store, gen, buf); err != nil {
				return 0, err
			}
			records++
		}
	}
	meta := snapshotMeta{
		generation: gen,
		horizon:    horizon,
		treeCount:  records,
		walCursor:  cursor,
	}
	if err := appendMeta(n.store, gen, encodeFooter(meta)); err != nil {
		return 0, err
	}
	n.snap.mu.Lock()
	n.snap.lastGen = gen
	n.snap.lastMeta = meta
	n.snap.hasSnap = true
	n.snap.mu.Unlock()
	return horizon, nil
}

// chunkLeaves splits a leaf directory into chunks whose encoded size stays
// within budget (at least one leaf per chunk).
func chunkLeaves(leaves []bwtree.LeafInfo, budget int) [][]bwtree.LeafInfo {
	var out [][]bwtree.LeafInfo
	var cur []bwtree.LeafInfo
	size := 64 // record header
	for _, lf := range leaves {
		leafSize := 2 + len(lf.Lo) + 17 + 2 + 17*len(lf.Deltas) + 8
		if len(cur) > 0 && size+leafSize > budget {
			out = append(out, cur)
			cur, size = nil, 64
		}
		cur = append(cur, lf)
		size += leafSize
	}
	if len(cur) > 0 {
		out = append(out, cur)
	}
	return out
}

// appendLeafPageIDs appends the page IDs of each leaf (kept out of the
// main record layout for backwards-compatible decoding).
func appendLeafPageIDs(buf []byte, leaves []bwtree.LeafInfo) []byte {
	for _, lf := range leaves {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(lf.Page))
	}
	return buf
}

// TrimWAL drops every sealed WAL extent fully covered by the most recent
// snapshot. RO nodes that attached before the snapshot are unaffected
// (their cursors are past the trimmed prefix); new RO nodes must bootstrap
// from the snapshot.
func (n *RWNode) TrimWAL() (dropped int) {
	n.snap.mu.Lock()
	meta, ok := n.snap.lastMeta, n.snap.hasSnap
	n.snap.mu.Unlock()
	if !ok {
		return 0
	}
	return len(n.store.DropBefore(storage.StreamWAL, meta.walCursor.Extent))
}

// LoadLatestSnapshot scans the meta stream for the newest complete
// snapshot and decodes it. found is false when no snapshot exists. Records
// whose checksum fails — torn tails of snapshot attempts aborted by a
// storage fault — are skipped: an aborted attempt never published its
// footer, so dropping its debris can never drop a published snapshot.
func LoadLatestSnapshot(st *storage.Store) (state core.SnapshotState, meta snapshotMeta, found bool, err error) {
	entries, _, err := st.Scan(storage.StreamMeta, storage.Cursor{}, 0)
	if err != nil {
		return state, meta, false, err
	}
	payloads := make([][]byte, len(entries))
	for i, e := range entries {
		if p, ok := openSnapRecord(e.Data); ok {
			payloads[i] = p
		}
	}
	// Find the newest footer.
	var best snapshotMeta
	footerIdx := -1
	for i, p := range payloads {
		if len(p) == 0 || p[0] != snapRecFooter {
			continue
		}
		m, err := decodeFooter(p)
		if err != nil {
			return state, meta, false, err
		}
		if footerIdx < 0 || m.generation > best.generation {
			best = m
			footerIdx = i
		}
	}
	if footerIdx < 0 {
		return state, meta, false, nil
	}
	// Collect the footer's own tree records: the treeCount generation-
	// tagged records written immediately before it. Walking back from the
	// footer keeps debris of earlier attempts that happen to share the
	// generation (possible only across a recovery) out of the snapshot.
	idxs := make([]int, 0, best.treeCount)
	for i := footerIdx - 1; i >= 0 && len(idxs) < best.treeCount; i-- {
		p := payloads[i]
		if len(p) == 0 || p[0] != snapRecTree || entries[i].Tag != best.generation {
			continue
		}
		idxs = append(idxs, i)
	}
	if len(idxs) != best.treeCount {
		return state, meta, false, fmt.Errorf("replication: snapshot %d incomplete: %d/%d records",
			best.generation, len(idxs), best.treeCount)
	}
	for i := len(idxs) - 1; i >= 0; i-- { // restore write order
		p := payloads[idxs[i]]
		gen, ts, isInit, err := decodeTreeSnapshot(p)
		if err != nil {
			return state, meta, false, err
		}
		if gen != best.generation {
			return state, meta, false, fmt.Errorf("replication: snapshot record generation %d under footer %d", gen, best.generation)
		}
		// Recover the page IDs appended after the main layout.
		if err := recoverLeafPageIDs(p, &ts); err != nil {
			return state, meta, false, err
		}
		if isInit {
			state.Init = ts.Tree
		}
		// Chunks of one tree are written consecutively: merge with the
		// previous entry when the tree matches.
		if n := len(state.Trees); n > 0 && state.Trees[n-1].Tree == ts.Tree {
			state.Trees[n-1].Leaves = append(state.Trees[n-1].Leaves, ts.Leaves...)
		} else {
			state.Trees = append(state.Trees, ts)
		}
	}
	return state, best, true, nil
}

// recoverLeafPageIDs reads the trailing page-ID array of a tree record.
func recoverLeafPageIDs(buf []byte, ts *core.TreeSnapshot) error {
	need := 8 * len(ts.Leaves)
	if len(buf) < need {
		return fmt.Errorf("replication: snapshot record missing page IDs")
	}
	tail := buf[len(buf)-need:]
	for i := range ts.Leaves {
		ts.Leaves[i].Page = bwtree.PageID(binary.LittleEndian.Uint64(tail[i*8:]))
	}
	return nil
}

// NewRONodeFromSnapshot attaches a replica bootstrapped from the latest
// snapshot: it installs the snapshot state and tails the WAL from the
// snapshot's cursor, skipping records the snapshot already reflects. If no
// snapshot exists it behaves like NewRONode (full WAL replay).
func NewRONodeFromSnapshot(st *storage.Store, interval time.Duration, cacheCapacity int) (*RONode, error) {
	n, err := attach(st, cacheCapacity)
	if err != nil {
		return nil, err
	}
	go n.pollLoop(interval)
	return n, nil
}

// attach is NewRONodeFromSnapshot without the tailing loop: a follower that
// applies the log when told to (Poll) — or once, to its end, to lead.
func attach(st *storage.Store, cacheCapacity int) (*RONode, error) {
	n := newRONode(st, cacheCapacity)
	found, err := n.bootstrap()
	if err != nil {
		return nil, err
	}
	if !found {
		n.install(core.NewReplica(st, cacheCapacity), wal.NewReader(st), snapshotMeta{})
	}
	return n, nil
}
