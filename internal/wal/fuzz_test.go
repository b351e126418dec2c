package wal

import (
	"bytes"
	"errors"
	"fmt"
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

// FuzzReaderMultiGroupTail writes K group envelopes to raw storage — an
// arbitrary subset torn, bit-flipped, or dropped entirely, or landing late,
// after the reader polled — and checks the reader a follower attaches with
// (NewReaderAtHead) against the log as appended: intact groups are delivered
// while each connects to the one before, damaged ones are skipped, and the
// first intact group that does not connect is a hole:
//
//   - exactly the records of the gapless intact prefix are delivered, in LSN
//     order, each once;
//   - a poll fails with ErrHole exactly when an intact group lies past the
//     prefix, and no record of it or past it is ever delivered, on this poll
//     or any later one, also once the late groups land behind it;
//   - with no hole, late groups that land deliver what connects of them.
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

		// The log as appended: each entry's LSNs, and whether it is intact.
		type entry struct {
			first, last LSN
			intact      bool
		}
		var log []entry
		expect := func() (end LSN, hole bool) {
			for _, e := range log {
				switch {
				case !e.intact:
				case e.first != end+1:
					return end, true
				default:
					end = e.last
				}
			}
			return end, false
		}
		var late []entry
		var lateEnvs [][]byte
		lsn := LSN(1)
		for i := 0; i < k; i++ {
			n := 1 + int(at(1+i))%3
			e := entry{first: lsn, last: lsn + LSN(n) - 1, intact: true}
			recs := make([]*Record, n)
			for j := range recs {
				recs[j] = &Record{Type: RecordPut, LSN: lsn, Key: []byte{byte(lsn)}}
				lsn++
			}
			env := sealGroup(nil, GroupMeta{First: e.first, Count: n}, recs)
			action := int(at(1+k+i)) % 4
			entropy := int(at(1 + 2*k + i))
			switch {
			case action == tailDrop && at(1+k+i)&4 != 0: // lands late
				late, lateEnvs = append(late, e), append(lateEnvs, env)
				continue
			case action == tailDrop:
				continue
			case action == tailTorn:
				env, e.intact = env[:1+entropy%(len(env)-1)], false
			case action == tailFlip:
				env[entropy%len(env)] ^= 0x01
				e.intact = false
			}
			if _, err := st.Append(storage.StreamWAL, 0, env); err != nil {
				t.Fatalf("raw append: %v", err)
			}
			log = append(log, e)
		}

		r := NewReaderAtHead(st)
		var got []LSN
		poll := func(what string) {
			t.Helper()
			end, hole := expect()
			recs, err := r.Poll()
			if errors.Is(err, ErrHole) != hole || (err != nil && !hole) {
				t.Fatalf("%s: %v, want a hole: %v", what, err, hole)
			}
			got = append(got, lsnsOf(recs)...)
			if len(got) != int(end) {
				t.Fatalf("%s: delivered LSNs %v in all, want the gapless prefix 1..%d", what, got, end)
			}
			for i, l := range got {
				if l != LSN(i+1) {
					t.Fatalf("%s: delivered LSNs %v, want 1..%d in order", what, got, end)
				}
			}
		}
		poll("first poll")
		for i := 0; i < 16; i++ {
			poll(fmt.Sprintf("poll %d", i))
		}

		// The late groups land, the last first.
		for i := len(late) - 1; i >= 0; i-- {
			if _, err := st.Append(storage.StreamWAL, 0, lateEnvs[i]); err != nil {
				t.Fatalf("raw append: %v", err)
			}
			log = append(log, late[i])
		}
		poll("poll after the late groups")
		if _, dups := r.Stats(); dups != 0 {
			t.Fatalf("%d records dropped as duplicates; every group was appended once", dups)
		}
	})
}
