package shard

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"

	"bg3/internal/core"
	"bg3/internal/graph"
	"bg3/internal/mvcc"
)

// Vector is a pinned cross-shard epoch vector: component i is the
// released group-commit boundary shard i was pinned at. Together the
// components name one consistent cut — each shard's state is a gapless
// WAL prefix ending exactly at its component.
type Vector []mvcc.Epoch

// Vector wire format ("SSV1"):
//
//	magic[4]="SSV1" version[1]=1 count[2]LE
//	count x { shard[2]LE epoch[8]LE }   (shards strictly ascending, < count)
//	crc32[4]LE over everything before it (IEEE)
//
// Decoding fails closed: truncated input, trailing bytes, bad magic or
// version, a zero or oversized count, duplicate / out-of-range / unsorted
// shard entries, and checksum mismatches are all rejected. Stale or
// future epochs are rejected later, at pin time (ValidateAgainst /
// mvcc.PinAt) — the decoder cannot know any source's horizon.
const (
	vectorMagic   = "SSV1"
	vectorVersion = 1
	// MaxVectorShards bounds a decoded vector's shard count; real
	// deployments are orders of magnitude smaller.
	MaxVectorShards = 4096

	vectorHeaderLen  = 4 + 1 + 2
	vectorEntryLen   = 2 + 8
	vectorTrailerLen = 4
)

// ErrBadVector reports an undecodable or inconsistent epoch vector.
var ErrBadVector = errors.New("shard: bad snapshot vector")

// Encode serializes the vector in the SSV1 wire format.
func (v Vector) Encode() []byte {
	buf := make([]byte, 0, vectorHeaderLen+len(v)*vectorEntryLen+vectorTrailerLen)
	buf = append(buf, vectorMagic...)
	buf = append(buf, vectorVersion)
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(v)))
	for i, e := range v {
		buf = binary.LittleEndian.AppendUint16(buf, uint16(i))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(e))
	}
	return binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf))
}

// DecodeVector parses and validates an SSV1 epoch vector, failing closed
// on any structural defect.
func DecodeVector(buf []byte) (Vector, error) {
	if len(buf) < vectorHeaderLen+vectorEntryLen+vectorTrailerLen {
		return nil, fmt.Errorf("%w: truncated (%d bytes)", ErrBadVector, len(buf))
	}
	if string(buf[:4]) != vectorMagic {
		return nil, fmt.Errorf("%w: bad magic", ErrBadVector)
	}
	if buf[4] != vectorVersion {
		return nil, fmt.Errorf("%w: unknown version %d", ErrBadVector, buf[4])
	}
	n := int(binary.LittleEndian.Uint16(buf[5:]))
	if n == 0 {
		return nil, fmt.Errorf("%w: empty vector", ErrBadVector)
	}
	if n > MaxVectorShards {
		return nil, fmt.Errorf("%w: %d shards exceeds limit %d", ErrBadVector, n, MaxVectorShards)
	}
	want := vectorHeaderLen + n*vectorEntryLen + vectorTrailerLen
	if len(buf) != want {
		return nil, fmt.Errorf("%w: length %d, want %d for %d shards", ErrBadVector, len(buf), want, n)
	}
	body := buf[:len(buf)-vectorTrailerLen]
	sum := binary.LittleEndian.Uint32(buf[len(buf)-vectorTrailerLen:])
	if crc32.ChecksumIEEE(body) != sum {
		return nil, fmt.Errorf("%w: checksum mismatch", ErrBadVector)
	}
	v := make(Vector, n)
	off := vectorHeaderLen
	for i := 0; i < n; i++ {
		shard := int(binary.LittleEndian.Uint16(body[off:]))
		if shard != i {
			// Covers duplicates, gaps, out-of-range ids, and reordering in
			// one check: a complete vector lists shards 0..n-1 in order.
			return nil, fmt.Errorf("%w: entry %d names shard %d", ErrBadVector, i, shard)
		}
		v[i] = mvcc.Epoch(binary.LittleEndian.Uint64(body[off+2:]))
		off += vectorEntryLen
	}
	return v, nil
}

// ValidateAgainst checks the vector against a group's sampled released
// epochs before any pin is attempted: the shard counts must match and no
// component may be ahead of its shard's released horizon (a vector from
// the future is forged or misrouted). Epochs at or behind the horizon
// still fail closed at pin time if their history has been folded
// (mvcc.ErrRetiredEpoch) or they are not group boundaries.
func (v Vector) ValidateAgainst(released Vector) error {
	if len(v) != len(released) {
		return fmt.Errorf("%w: vector has %d shards, group has %d", ErrBadVector, len(v), len(released))
	}
	for i, e := range v {
		if e > released[i] {
			return fmt.Errorf("%w: shard %d epoch %d ahead of released horizon %d: %w",
				ErrBadVector, i, e, released[i], mvcc.ErrFutureEpoch)
		}
	}
	return nil
}

// Snapshot is a consistent cross-shard cut: one pinned ReadView per
// shard, every read routed to the owner and evaluated at that shard's
// pinned horizon. It implements graph.Reader, so graph.KHop,
// pattern.Match and pattern.FindCycles run against it unchanged, and
// graph.FrontierReader (routed.NeighborsMany), so every KHop hop over it
// is one parallel scatter to the shards the frontier touches.
//
// A Snapshot holds every shard's retention floor down until closed;
// close it promptly. Safe for concurrent readers; Close is idempotent.
type Snapshot struct {
	routed // every read at its owner's pinned horizon
	views  []*core.ReadView
}

var _ graph.Reader = (*Snapshot)(nil)

func newSnapshot(router *Router, views []*core.ReadView) *Snapshot {
	return &Snapshot{
		routed: routed{router, func(i int) graph.Reader { return views[i] }},
		views:  views,
	}
}

// Epochs returns the pinned epoch vector (component i = shard i's
// group-commit boundary).
func (s *Snapshot) Epochs() Vector {
	v := make(Vector, len(s.views))
	for i, view := range s.views {
		v[i] = view.Epoch()
	}
	return v
}

// View returns shard i's pinned read view (the per-shard gather unit).
func (s *Snapshot) View(i int) *core.ReadView { return s.views[i] }

// Shards returns the number of shards in the cut.
func (s *Snapshot) Shards() int { return len(s.views) }

// Close releases every shard's pin. Idempotent; safe on nil.
func (s *Snapshot) Close() {
	if s == nil {
		return
	}
	for _, v := range s.views {
		v.Close()
	}
}
