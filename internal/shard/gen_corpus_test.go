package shard

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// TestGenPrepareCorpus regenerates the checked-in fuzz corpus. Guarded.
func TestGenPrepareCorpus(t *testing.T) {
	if os.Getenv("BG3_GEN_CORPUS") == "" {
		t.Skip("set BG3_GEN_CORPUS=1 to regenerate")
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzDecodePrepareRecord")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	valid, dup, commit := seedPayloads(t)
	flipped := append([]byte(nil), valid...)
	flipped[9] ^= 0x40
	crcFlip := append([]byte(nil), valid...)
	crcFlip[len(crcFlip)-2] ^= 0x01
	cases := []struct {
		name       string
		data       []byte
		txn, epoch uint64
		commit     bool   // carried by the coordinator's commit, not a prepare
		page       uint64 // the carrying record's PageID: the coordinator
	}{
		{"valid", valid, 7, 3, false, 0},
		{"wrong-epoch", valid, 7, 4, false, 0},
		{"wrong-txn-id", valid, 8, 3, false, 0},
		{"torn-tail", valid[:len(valid)-6], 7, 3, false, 0},
		{"torn-header", valid[:txnHeaderLen], 7, 3, false, 0},
		{"bit-flip-txn", flipped, 7, 3, false, 0},
		{"bit-flip-crc", crcFlip, 7, 3, false, 0},
		{"duplicate-participant", dup, 9, 1, false, 1},
		{"empty", nil, 7, 3, false, 0},
		{"commit-valid", commit, 7, 3, true, 0},
		{"commit-wrong-coordinator", commit, 7, 3, true, 2},
		{"commit-participant-part", valid, 7, 3, true, 0},
	}
	for _, c := range cases {
		body := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\nuint64(%d)\nuint64(%d)\nbool(%v)\nuint64(%d)\n",
			c.data, c.txn, c.epoch, c.commit, c.page)
		if err := os.WriteFile(filepath.Join(dir, c.name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
