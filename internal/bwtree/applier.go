package bwtree

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"bg3/internal/storage"
	"bg3/internal/wal"
)

// The applier role: the RO node of §3.4 is the leader's own page table —
// pageEntry, Mapping, its cache, materialize, loadHeld, scanLeaf — written by
// WAL records instead of Tree.Apply. The invariant is that an applier's entry,
// once the records up to LSN L are in, reads at horizon L as the leader's did
// at L:
//
//   - Structural records are applied eagerly, they are tiny: a new tree
//     registers its root leaf, a split is the leader's with the record's
//     separator, sibling ID and left live count (halve, adopt, insertParent).
//   - Data records are one insertOp into the named page's overlay under its
//     latch — the paper's "lazy replay": stamped with their LSN, merged over
//     the page's image by scanPage at read time, never replayed into a copy,
//     and kept across eviction.
//   - A cold page loads the *old* durable version through the mapping it has
//     (§3.4 steps 5–6). A split sibling with no records of its own yet reads
//     its origin's through its own range (pageEntry.locs), and the delta chain
//     is read and folded into the image, which a leader's overlay spares it
//     (tree.go) — the two things an applier's load does that a leader's does
//     not.
//   - A checkpoint carries the new durable locations (§3.4 step 8), in one
//     record or several: with its last record the named pages adopt them and
//     every overlay drops the ops at or below the checkpoint LSN, folding them
//     into a resident image first.
//
// An applier has no logger and no flusher, never marks a page dirty, never
// allocates a leaf or tree ID and never appends to the shared store — until it
// is handed the leader's role (TakeOver, takeover.go), which is how a leader
// recovers and how a follower is promoted: the log is turned into pages here
// and nowhere else.

// NewApplierMapping returns the page table of an RO node. capacity bounds the
// leaf pages with resident content (0 = unlimited).
func NewApplierMapping(capacity int) *Mapping {
	m := NewMapping(capacity, false)
	m.applier = true
	return m
}

// NewApplierTree registers what a RecordNewTree names: tree id, rooted at the
// empty leaf root. The leaf starts cold, like every page an applier is told
// of; it has no records, so its first read costs no I/O. It is known empty, so
// its live count is kept from here on (ApplyRecord, applySplit): the counts a
// hand-over seeds the leader's size estimates from (TakeOver).
func NewApplierTree(m *Mapping, store *storage.Store, id TreeID, root PageID) *Tree {
	t := &Tree{id: id, store: store, m: m, cfg: Config{}.withDefaults(), root: root}
	m.register(&pageEntry{id: root, tree: t, isLeaf: true})
	return t
}

// CutLSN returns the LSN of the last checkpoint record whose cut an applier
// has made: the checkpoint is in, its ops are out of every overlay. A
// checkpoint applies after its commit group is published (forest.ApplyGroup),
// so the applied LSN reaching a checkpoint does not yet say it is in; this
// does.
func (m *Mapping) CutLSN() wal.LSN { return wal.LSN(m.cut.Load()) }

// ApplyRecord incorporates one WAL record that addresses pages. Records must
// arrive in LSN order. Tree creation and owner assignment belong to whoever
// keeps the tree directory (forest.Forest.ApplyGroup).
func (m *Mapping) ApplyRecord(rec *wal.Record) error {
	switch rec.Type {
	case wal.RecordPut, wal.RecordDelete, wal.RecordSplit:
		e := m.get(PageID(rec.PageID))
		if e == nil || !e.isLeaf {
			return fmt.Errorf("bwtree: apply: %v record for unknown page %d", rec.Type, rec.PageID)
		}
		if rec.Type == wal.RecordSplit {
			left, k := binary.Uvarint(rec.Value)
			if k <= 0 {
				left = math.MaxUint64 // not said: both halves' counts are unknown
			}
			e.tree.applySplit(e, rec.Key, PageID(rec.AuxPage), left)
			return nil
		}
		del := rec.Type == wal.RecordDelete
		e.mu.Lock()
		e.overlay = insertOp(e.ownOverlay(1), op{del: del, key: rec.Key, val: rec.Value, lsn: rec.LSN})
		e.version++
		// The live count moves as the leader's did: an insert of a new key up,
		// the delete of a present one down.
		if e.live >= 0 && (rec.AuxPage == existedKey) == del {
			if del {
				e.live--
			} else {
				e.live++
			}
		}
		e.mu.Unlock()
		return nil
	case wal.RecordCheckpoint:
		return m.applyCheckpoint(rec)
	case wal.RecordTxnPrepare, wal.RecordTxnCommit, wal.RecordTxnAbort, wal.RecordTxnApplied:
		// Cross-shard transaction control records: decided payloads are
		// re-logged as ordinary data records, so appliers track nothing here.
		return nil
	default:
		return fmt.Errorf("bwtree: apply: unexpected record type %v", rec.Type)
	}
}

// applySplit is split for a split the leader already decided: no
// materialization (the separator comes with the record, the halves stay as
// resident as the page was), nothing dirty; a live count the applier kept is
// divided as the record says the leader divided it, left keys staying on e.
// The sibling reads e's records until a checkpoint gives it its own.
func (t *Tree) applySplit(e *pageEntry, sep []byte, rightID PageID, left uint64) {
	t.structMu.Lock()
	defer t.structMu.Unlock()
	e.mu.Lock()
	defer e.mu.Unlock()
	right := e.halve(sep, rightID)
	right.origin = e.id
	if n := e.live; n >= 0 && left <= uint64(n) {
		e.live, right.live = int(left), n-int(left)
	} else {
		e.live = -1
	}
	t.adopt(e, right)
	t.insertParent(e.id, sep, rightID)
}

// applyCheckpoint moves the named pages to their new durable records and
// drops from every overlay the ops the durable state now covers: a page that
// was clean when the leader sampled the checkpoint LSN had everything at or
// below it flushed by an earlier cycle. A resident image predates those ops,
// so they fold into it first; an evicted page reloads them from the records.
//
// A checkpoint too large for one record arrives as several, each but the last
// counting in TreeID the records still to come, and takes effect as one, with
// the last. Moved a record at a time, a page would narrow to its own range
// while the sibling split off it, named by a later record, still read through
// it (locs); cut a record early, a page named later would reload from records
// without the ops it just dropped. The leading records of a checkpoint whose
// leader died before the last are dropped when the next leader's first arrives
// under its higher fence epoch.
func (m *Mapping) applyCheckpoint(rec *wal.Record) error {
	updates, err := DecodeMappingUpdates(rec.Value)
	if err != nil {
		return err
	}
	if rec.Epoch != m.ckptEpoch {
		m.ckptUpdates, m.ckptEpoch = nil, rec.Epoch
	}
	if m.ckptUpdates = append(m.ckptUpdates, updates...); rec.TreeID != 0 {
		return nil
	}
	for _, up := range m.ckptUpdates {
		// A page this applier was never told of cannot be routed to either.
		if e := m.get(up.Page); e != nil && e.isLeaf {
			e.mu.Lock()
			if up.Base != e.baseLoc { // the image may be the old record's view: a copy keeps no old extent
				e.base = slices.Clone(e.base)
			}
			e.baseLoc, e.deltaLocs, e.origin = up.Base, up.Deltas, 0
			e.mu.Unlock()
		}
	}
	m.ckptUpdates = nil
	for _, e := range m.leaves() {
		e.mu.Lock()
		if keep := opsAbove(e.overlay, rec.CkptLSN); len(keep) < len(e.overlay) {
			if e.base != nil {
				img, err := mergeEncode(nil, e.base, e.overlay, e.lo, e.hi, rec.CkptLSN)
				if err != nil {
					e.mu.Unlock()
					return err
				}
				e.base = img
			}
			e.overlay, e.shared = keep, false
		}
		e.mu.Unlock()
	}
	m.cut.Store(uint64(rec.LSN))
	return nil
}

// Flags of an encoded mapping update.
const (
	updNamed = 1 << iota // a naming: the low key follows
	updInit              // the tree is INIT
	updOwned             // the tree is dedicated: the owner follows
)

// EncodeMappingUpdates serializes mapping updates for a checkpoint record:
//
//	count { flags[1] tree page base ndeltas deltas* [owner if owned] [lolen lo if named] }
//
// where a Loc is stream[1] extent offset length, and every integer but the
// flags and the stream a uvarint.
func EncodeMappingUpdates(ups []MappingUpdate) []byte {
	size := wal.UvarintLen(uint64(len(ups)))
	for _, up := range ups {
		size += up.Size()
	}
	buf := binary.AppendUvarint(make([]byte, 0, size), uint64(len(ups)))
	for _, up := range ups {
		var flags byte
		if up.Named {
			flags |= updNamed
		}
		if up.Init {
			flags |= updInit
		}
		if up.Owned {
			flags |= updOwned
		}
		buf = binary.AppendUvarint(append(buf, flags), uint64(up.Tree))
		buf = appendLoc(binary.AppendUvarint(buf, uint64(up.Page)), up.Base)
		buf = binary.AppendUvarint(buf, uint64(len(up.Deltas)))
		for _, d := range up.Deltas {
			buf = appendLoc(buf, d)
		}
		if up.Owned {
			buf = binary.AppendUvarint(buf, up.Owner)
		}
		if up.Named {
			buf = append(binary.AppendUvarint(buf, uint64(len(up.Lo))), up.Lo...)
		}
	}
	return buf
}

// Size is the update's exact length in EncodeMappingUpdates' form.
func (up MappingUpdate) Size() int {
	n := 1 + wal.UvarintLen(uint64(up.Tree)) + wal.UvarintLen(uint64(up.Page)) + locSize(up.Base) +
		wal.UvarintLen(uint64(len(up.Deltas)))
	for _, d := range up.Deltas {
		n += locSize(d)
	}
	if up.Owned {
		n += wal.UvarintLen(up.Owner)
	}
	if up.Named {
		n += wal.UvarintLen(uint64(len(up.Lo))) + len(up.Lo)
	}
	return n
}

// minUpdateSize is the shortest encoded update: flags, one-byte tree and
// page, a base of one byte per field and a zero delta count.
const minUpdateSize = 1 + 2 + 4 + 1

// locSize is the length of l's appendLoc form.
func locSize(l storage.Loc) int {
	return 1 + wal.UvarintLen(uint64(l.Extent)) + wal.UvarintLen(uint64(l.Offset)) + wal.UvarintLen(uint64(l.Length))
}

// appendLoc appends l's wire form, stream[1] then uvarint extent, offset and
// length: the form checkpoints ship page locations in.
func appendLoc(buf []byte, l storage.Loc) []byte {
	buf = binary.AppendUvarint(append(buf, byte(l.Stream)), uint64(l.Extent))
	buf = binary.AppendUvarint(buf, uint64(l.Offset))
	return binary.AppendUvarint(buf, uint64(l.Length))
}

// readLoc parses one appendLoc-encoded location off the front of buf and
// returns the remainder.
func readLoc(buf []byte) (storage.Loc, []byte, error) {
	if len(buf) == 0 {
		return storage.Loc{}, nil, fmt.Errorf("%w: truncated loc", ErrCorruptPage)
	}
	var off, length uint64
	l := storage.Loc{Stream: storage.StreamID(buf[0])}
	rest, ok := wal.ReadUvarints(buf[1:], (*uint64)(&l.Extent), &off, &length)
	if !ok || off > math.MaxUint32 || length > math.MaxUint32 {
		return storage.Loc{}, nil, fmt.Errorf("%w: loc", ErrCorruptPage)
	}
	l.Offset, l.Length = uint32(off), uint32(length)
	return l, rest, nil
}

// DecodeMappingUpdates parses the payload of a checkpoint record.
func DecodeMappingUpdates(buf []byte) ([]MappingUpdate, error) {
	var n, nd, lo uint64
	buf, ok := wal.ReadUvarints(buf, &n)
	if !ok {
		return nil, fmt.Errorf("%w: mapping update count", ErrCorruptPage)
	}
	// The count is off the wire: preallocate for no more updates than the
	// bytes behind it can hold.
	ups := make([]MappingUpdate, 0, min(n, uint64(len(buf)/minUpdateSize)))
	for i := uint64(0); i < n; i++ {
		if len(buf) == 0 {
			return nil, fmt.Errorf("%w: truncated mapping update %d", ErrCorruptPage, i)
		}
		flags := buf[0]
		if flags&^(updNamed|updInit|updOwned) != 0 || (flags&(updInit|updOwned) != 0 && flags&updNamed == 0) ||
			flags&updInit != 0 && flags&updOwned != 0 {
			return nil, fmt.Errorf("%w: mapping update %d flags %#x", ErrCorruptPage, i, flags)
		}
		up := MappingUpdate{Named: flags&updNamed != 0, Init: flags&updInit != 0, Owned: flags&updOwned != 0}
		if buf, ok = wal.ReadUvarints(buf[1:], (*uint64)(&up.Tree), (*uint64)(&up.Page)); !ok {
			return nil, fmt.Errorf("%w: mapping update %d ids", ErrCorruptPage, i)
		}
		var err error
		if up.Base, buf, err = readLoc(buf); err != nil {
			return nil, err
		}
		if buf, ok = wal.ReadUvarints(buf, &nd); !ok {
			return nil, fmt.Errorf("%w: delta count %d", ErrCorruptPage, i)
		}
		for j := uint64(0); j < nd; j++ {
			var d storage.Loc
			if d, buf, err = readLoc(buf); err != nil {
				return nil, err
			}
			up.Deltas = append(up.Deltas, d)
		}
		if up.Owned {
			if buf, ok = wal.ReadUvarints(buf, &up.Owner); !ok {
				return nil, fmt.Errorf("%w: owner %d", ErrCorruptPage, i)
			}
		}
		if up.Named {
			if buf, ok = wal.ReadUvarints(buf, &lo); !ok || lo > uint64(len(buf)) {
				return nil, fmt.Errorf("%w: truncated low key %d", ErrCorruptPage, i)
			}
			if lo > 0 {
				up.Lo = buf[:lo:lo]
			}
			buf = buf[lo:]
		}
		ups = append(ups, up)
	}
	return ups, nil
}
