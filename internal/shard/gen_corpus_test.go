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
	for _, c := range prepareSeeds(t) {
		body := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\nuint64(%d)\nbool(%v)\n", c.data, c.txn, c.commit)
		if err := os.WriteFile(filepath.Join(dir, c.name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
