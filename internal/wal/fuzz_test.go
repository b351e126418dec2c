package wal

import (
	"bytes"
	"testing"

	"bg3/internal/storage"
)

// FuzzUnframeGroup throws arbitrary bytes — plus torn and corrupted variants
// of whatever valid envelope the fuzzer discovers — at the group-envelope
// decoder and checks the recovery contract:
//
//   - never panics, on any input;
//   - ok implies a canonical envelope: when every frame decodes, re-sealing
//     the records through the writer's sealer reproduces the input byte for
//     byte;
//   - every strict prefix of a valid envelope reads as torn (ok=false,
//     err=nil) — a crashed append can only leave a prefix, and a torn tail
//     must drop the whole group, never surface as corruption;
//   - every single-byte flip of a valid envelope reads as torn — the CRC
//     covers the full payload and the header is length-checked;
//   - parsed frames survive Record decoding without panicking, and a frame
//     that decodes re-encodes byte for byte: a record has one encoding.
//
// Seed corpus: testdata/fuzz/FuzzUnframeGroup (checked in).
func FuzzUnframeGroup(f *testing.F) {
	// A group of one empty record, a multi-record group, and junk.
	f.Add(sealGroup(nil, GroupMeta{First: 1, Count: 1}, []*Record{{Type: RecordCheckpoint}}))
	f.Add(sealGroup(nil, GroupMeta{Epoch: 3, First: 1, Count: 2}, []*Record{
		{Type: RecordPut, Key: []byte("k"), Value: []byte("v")},
		{Type: RecordDelete, Key: []byte("k")},
	}))
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0})

	f.Fuzz(func(t *testing.T, data []byte) {
		meta, frames, ok, err := unframeGroup(data)
		if ok && err != nil {
			t.Fatalf("ok with error: %v", err)
		}
		if !ok {
			return
		}
		if len(frames) != meta.Count {
			t.Fatalf("ok envelope: %d frames but meta count %d", len(frames), meta.Count)
		}

		// Record decoding must be total (error, never panic) and canonical,
		// and an envelope of records re-seals to itself.
		recs := make([]*Record, 0, len(frames))
		for i, fr := range frames {
			rec, err := Decode(fr)
			if err != nil {
				continue
			}
			if enc := appendRecord(nil, rec); !bytes.Equal(enc, fr) {
				t.Fatalf("frame %d decodes but re-encodes differently:\n in: %x\nout: %x", i, fr, enc)
			}
			recs = append(recs, rec)
		}
		if len(recs) == len(frames) {
			if resealed := sealGroup(nil, meta, recs); !bytes.Equal(resealed, data) {
				t.Fatalf("re-sealing %d records does not reproduce the envelope:\n in: %x\nout: %x",
					len(recs), data, resealed)
			}
		}

		// Torn-tail property: a failed append persists a byte prefix; every
		// strict prefix must be rejected as torn, not parsed and not flagged
		// as corruption.
		for _, cut := range []int{0, 1, groupHeader - 1, groupHeader, groupHeader + metaMin - 1, len(data) / 2, len(data) - 1} {
			if cut < 0 || cut >= len(data) {
				continue
			}
			if _, _, pok, perr := unframeGroup(data[:cut]); pok || perr != nil {
				t.Fatalf("prefix of %d/%d bytes: ok=%v err=%v, want torn", cut, len(data), pok, perr)
			}
		}

		// Bit-rot property: any single-byte flip breaks either the length
		// check or the payload CRC — the meta block included.
		for _, i := range []int{0, 4, groupHeader, groupHeader + 1, groupHeader + metaMin, len(data) / 2, len(data) - 1} {
			if i < 0 || i >= len(data) {
				continue
			}
			mut := bytes.Clone(data)
			mut[i] ^= 0x01
			if _, _, mok, merr := unframeGroup(mut); mok || merr != nil {
				t.Fatalf("flip at byte %d/%d: ok=%v err=%v, want torn", i, len(data), mok, merr)
			}
		}
	})
}

// Damage actions a fuzzed multi-group tail can apply per group.
const (
	tailIntact = iota
	tailTorn
	tailFlip
	tailDrop
)

// FuzzReaderMultiGroupTail writes K pipelined group envelopes to raw
// storage — an arbitrary subset torn, bit-flipped, or dropped entirely, as
// a crashed pipelined leader would leave them, or landing late, after the
// reader polled over the gap — and checks the durable-prefix contract of the
// reader a follower attaches with (NewReaderAtHead):
//
//   - exactly the records of the gapless intact prefix are delivered, in
//     LSN order;
//   - no record from a group at or past the first damaged group is ever
//     delivered (no post-gap resurrection), on this poll or any later one;
//   - intact post-gap groups are parked as pending, and any number of polls
//     over the gap deliver nothing past it and return no error: only the log
//     says a hole is final (a trim, a later tenure's fence);
//   - once the late groups land, the records of the gapless prefix they
//     complete are delivered, each exactly once.
//
// Seed corpus: testdata/fuzz/FuzzReaderMultiGroupTail (checked in).
func FuzzReaderMultiGroupTail(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{4, 0, 1, 2, 0, 0, 0, 0, 7, 13})          // 5 groups, second torn
	f.Add([]byte{2, 0, 0, 0, 3, 1, 5})                    // 3 groups, gap then flip
	f.Add([]byte{4, 2, 2, 2, 2, 0, 0, 0, 0, 0, 99, 3, 1}) // all intact
	f.Add([]byte{0, 0, 1})                                // first group torn: empty prefix

	f.Fuzz(func(t *testing.T, data []byte) {
		at := func(i int) byte {
			if i < len(data) {
				return data[i]
			}
			return 0
		}
		k := 1 + int(at(0))%5

		st := storage.Open(&storage.Options{})
		defer st.Close()

		// Build and append the damaged tail, tracking where the gapless
		// intact prefix ends.
		var (
			lsn       LSN = 1
			prefixEnd LSN
			inPrefix  = true
			pending   int
			// The same, once the late groups have landed.
			lateEnd  LSN
			inLate   = true
			lateEnvs [][]byte
		)
		for i := 0; i < k; i++ {
			n := 1 + int(at(1+i))%3
			first := lsn
			recs := make([]*Record, n)
			for j := 0; j < n; j++ {
				recs[j] = &Record{Type: RecordPut, LSN: lsn, Key: []byte{byte(lsn)}}
				lsn++
			}
			env := sealGroup(nil, GroupMeta{First: first, Count: n}, recs)
			action := int(at(1+k+i)) % 4
			// A dropped group whose byte has bit 2 set is appended late.
			late := action == tailDrop && at(1+k+i)&4 != 0
			entropy := int(at(1 + 2*k + i))
			switch {
			case late:
				lateEnvs = append(lateEnvs, env)
				env = nil
			case action == tailTorn:
				env = env[:1+entropy%(len(env)-1)]
			case action == tailFlip:
				env[entropy%len(env)] ^= 0x01
			case action == tailDrop:
				env = nil
			}
			if action == tailIntact {
				if inPrefix {
					prefixEnd = lsn - 1
				} else {
					pending++
				}
			} else {
				inPrefix = false
			}
			if inLate = inLate && (action == tailIntact || late); inLate {
				lateEnd = lsn - 1
			}
			if env != nil {
				if _, err := st.Append(storage.StreamWAL, 0, env); err != nil {
					t.Fatalf("raw append: %v", err)
				}
			}
		}

		r := NewReaderAtHead(st)
		recs, err := r.Poll()
		if err != nil {
			t.Fatalf("first poll: %v", err)
		}
		if len(recs) != int(prefixEnd) {
			t.Fatalf("delivered %d records, want gapless prefix of %d", len(recs), prefixEnd)
		}
		for i, rec := range recs {
			if rec.LSN != LSN(i+1) {
				t.Fatalf("record %d has LSN %d, want in-order prefix", i, rec.LSN)
			}
		}
		if got := r.PendingGroups(); got != pending {
			t.Fatalf("%d groups parked, want %d intact post-gap groups", got, pending)
		}

		// Later polls must hold the line: no post-gap resurrection, and no
		// error — nothing in the log says the gap is final.
		for i := 0; i < 16; i++ {
			more, perr := r.Poll()
			if len(more) != 0 {
				t.Fatalf("poll %d resurrected %d post-gap records (first LSN %d)", i, len(more), more[0].LSN)
			}
			if perr != nil {
				t.Fatalf("poll %d over the gap: %v", i, perr)
			}
		}
		if got := r.PendingGroups(); got != pending {
			t.Fatalf("%d groups parked after the polls over the gap, want %d", got, pending)
		}

		// The late groups land, the last first.
		for i := len(lateEnvs) - 1; i >= 0; i-- {
			if _, err := st.Append(storage.StreamWAL, 0, lateEnvs[i]); err != nil {
				t.Fatalf("raw append: %v", err)
			}
		}
		more, err := r.Poll()
		if err != nil {
			t.Fatalf("poll after the late groups: %v", err)
		}
		if want := int(lateEnd - prefixEnd); len(more) != want {
			t.Fatalf("late groups delivered %d records, want %d", len(more), want)
		}
		for i, rec := range more {
			if rec.LSN != prefixEnd+LSN(i+1) {
				t.Fatalf("late record %d has LSN %d, want %d", i, rec.LSN, prefixEnd+LSN(i+1))
			}
		}
		if _, dups := r.Stats(); dups != 0 {
			t.Fatalf("%d records dropped as duplicates; every group was appended once", dups)
		}
	})
}
