package shard

import (
	"bytes"
	"errors"
	"testing"

	"bg3/internal/mvcc"
)

// FuzzShardSnapshotVector fuzzes the SSV1 epoch-vector decoder — the one
// input a sharded deployment accepts from outside the process. Properties:
//
//   - DecodeVector never panics, whatever the bytes;
//   - anything it accepts is canonical: re-encoding reproduces the input
//     byte for byte (there is exactly one wire form per vector);
//   - accepted vectors are structurally sound (1..MaxVectorShards
//     components), and validation against a released horizon stays
//     fail-closed: any component ahead of its shard rejects with
//     mvcc.ErrFutureEpoch, wrong-length horizons reject outright.
func FuzzShardSnapshotVector(f *testing.F) {
	f.Add([]byte{})
	f.Add(Vector{7}.Encode())
	f.Add(Vector{1, 2, 3, 4}.Encode())
	valid := Vector{10, 0, 1 << 40, 25}.Encode()
	f.Add(valid)
	f.Add(valid[:len(valid)-3]) // truncated trailer
	f.Add(valid[:vectorHeaderLen])

	f.Fuzz(func(t *testing.T, data []byte) {
		v, err := DecodeVector(data)
		if err != nil {
			if !errors.Is(err, ErrBadVector) {
				t.Fatalf("decode error %v does not wrap ErrBadVector", err)
			}
			return
		}
		if len(v) < 1 || len(v) > MaxVectorShards {
			t.Fatalf("decoder accepted %d components", len(v))
		}
		if re := v.Encode(); !bytes.Equal(re, data) {
			t.Fatalf("accepted vector is not canonical:\n in  %x\n out %x", data, re)
		}

		// Exact released horizon: always valid.
		if err := v.ValidateAgainst(v); err != nil {
			t.Fatalf("vector rejected against its own horizon: %v", err)
		}

		// Any nonzero component is ahead of an all-zero horizon: the stale
		// shard must reject with ErrFutureEpoch, fail closed.
		ahead := false
		for _, e := range v {
			if e > 0 {
				ahead = true
			}
		}
		if ahead {
			if err := v.ValidateAgainst(make(Vector, len(v))); !errors.Is(err, mvcc.ErrFutureEpoch) {
				t.Fatalf("component ahead of horizon: err = %v, want ErrFutureEpoch", err)
			}
		}

		// Shard-count mismatch rejects regardless of values.
		if err := v.ValidateAgainst(make(Vector, len(v)+1)); err == nil {
			t.Fatal("wrong-length horizon accepted")
		}
	})
}
