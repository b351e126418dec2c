package chaos

import (
	"fmt"
	"testing"
	"time"

	"bg3/internal/storage"
)

// TestCrashRecoveryProperty is the acceptance property of the fault layer:
// under a seeded plan with >=10% transient append failures, probabilistic
// torn tail-writes (plus one forced torn write), latency spikes, read
// faults and repeated crash points, no acknowledged write is ever lost
// across recovery, and no impossible state appears. Three seeds run in CI;
// each is fully reproducible from its (workload, fault) seed pair.
func TestCrashRecoveryProperty(t *testing.T) {
	ops := 2500
	if testing.Short() {
		ops = 600
	}
	for _, seed := range []int64{1, 2, 3} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rep, err := Run(Config{
				Seed:         seed,
				Ops:          ops,
				CrashAppends: 500,
				Faults: storage.FaultConfig{
					Seed:           seed * 7717,
					AppendFailProb: 0.10,
					TornWriteProb:  0.03,
					ReadFailProb:   0.02,
					SpikeProb:      0.01,
					SpikeLatency:   20 * time.Microsecond,
				},
				Logf: t.Logf,
			})
			if err != nil {
				t.Fatalf("property violated: %v", err)
			}
			if rep.Acked == 0 {
				t.Fatal("no operation was ever acknowledged; the workload is vacuous")
			}
			if rep.Crashes == 0 {
				t.Error("no crash point fired; crash spacing too wide for the run")
			}
			if rep.Recoveries < rep.Crashes+1 {
				t.Errorf("recoveries %d < crashes %d + final restart", rep.Recoveries, rep.Crashes)
			}
			if rep.Faults.TransientAppends == 0 {
				t.Error("no transient append failures injected at 10% probability")
			}
			if rep.Faults.TornWrites == 0 {
				t.Error("no torn write injected despite TearNext")
			}
		})
	}
}

// TestCrashRecoveryWithGroupCommitBatches layers batched mutations and a
// real group-commit window onto the faulty workload: ApplyBatch calls whose
// WAL records coalesce into multi-record group envelopes, with forced torn
// appends landing mid-flush and crash points striking between them. The
// property: a crash during a group flush leaves either the whole envelope
// durable or none of it — a failed batch's mutations are all individually
// uncertain, an acked batch's mutations must all survive recovery, and no
// state outside the oracle's reachable set ever appears.
func TestCrashRecoveryWithGroupCommitBatches(t *testing.T) {
	ops := 2000
	if testing.Short() {
		ops = 500
	}
	for _, seed := range []int64{11, 12} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rep, err := Run(Config{
				Seed:           seed,
				Ops:            ops,
				BatchFrac:      0.35,
				BatchMax:       10,
				CommitWindow:   200 * time.Microsecond,
				CommitMaxBatch: 16,
				CrashAppends:   400,
				Faults: storage.FaultConfig{
					Seed:           seed * 5557,
					AppendFailProb: 0.08,
					TornWriteProb:  0.04,
				},
				Logf: t.Logf,
			})
			if err != nil {
				t.Fatalf("property violated: %v", err)
			}
			if rep.BatchOps == 0 {
				t.Fatal("no batches issued; the run is vacuous")
			}
			if rep.BatchMutations < 2*rep.BatchOps {
				t.Errorf("batches carried %d mutations over %d calls; expected >= 2 each",
					rep.BatchMutations, rep.BatchOps)
			}
			if rep.Crashes == 0 {
				t.Error("no crash point fired; crash spacing too wide for the run")
			}
			if rep.Faults.TornWrites == 0 {
				t.Error("no torn write injected despite forced tears before batches")
			}
		})
	}
}

// TestChaosQuietBatches pins the batched path itself: with faults disabled
// every batch must ack and the oracle must match exactly — if this fails,
// the faulty batch runs prove nothing.
func TestChaosQuietBatches(t *testing.T) {
	rep, err := Run(Config{
		Seed:           21,
		Ops:            600,
		BatchFrac:      0.4,
		CommitWindow:   100 * time.Microsecond,
		CommitMaxBatch: 16,
		Logf:           t.Logf,
	})
	if err != nil {
		t.Fatalf("quiet batch run failed: %v", err)
	}
	if rep.Failed != 0 {
		t.Errorf("quiet batch run had %d failed ops", rep.Failed)
	}
	if rep.UncertainKeys != 0 {
		t.Errorf("quiet batch run left %d uncertain keys", rep.UncertainKeys)
	}
	if rep.BatchOps == 0 {
		t.Fatal("no batches issued")
	}
}

// TestChaosQuiet runs the harness with every fault disabled: a pure
// crash-free workload where every op must ack and the oracle must match
// exactly. This pins the harness itself — if the quiet run fails, the
// fault runs prove nothing.
func TestChaosQuiet(t *testing.T) {
	rep, err := Run(Config{Seed: 42, Ops: 800, Logf: t.Logf})
	if err != nil {
		t.Fatalf("quiet run failed: %v", err)
	}
	if rep.Failed != 0 {
		t.Errorf("quiet run had %d failed ops", rep.Failed)
	}
	if rep.UncertainKeys != 0 {
		t.Errorf("quiet run left %d uncertain keys", rep.UncertainKeys)
	}
	if rep.Crashes != 0 {
		t.Errorf("quiet run crashed %d times", rep.Crashes)
	}
}

// TestChaosGC layers synchronous GC cycles into the faulty workload: page
// relocation concurrent with crash-recovery must not invalidate the
// durability property (the release rule keeps superseded locations readable
// until every follower has applied the checkpoint that names the new ones).
func TestChaosGC(t *testing.T) {
	if testing.Short() {
		t.Skip("gc chaos run skipped in short mode")
	}
	rep, err := Run(Config{
		Seed:         9,
		Ops:          1500,
		GCEvery:      120,
		CrashAppends: 700,
		Faults: storage.FaultConfig{
			Seed:           61,
			AppendFailProb: 0.08,
			TornWriteProb:  0.02,
		},
		Logf: t.Logf,
	})
	if err != nil {
		t.Fatalf("gc chaos run failed: %v", err)
	}
	if rep.Acked == 0 {
		t.Fatal("no acknowledged ops")
	}
}

// TestRunRejectsExtentLoss documents why the single-copy harness refuses
// SealLossProb: losing an extent holding acked data is unrecoverable
// without replication, and the harness must not mask that as a pass.
func TestRunRejectsExtentLoss(t *testing.T) {
	_, err := Run(Config{Seed: 1, Ops: 10, Faults: storage.FaultConfig{SealLossProb: 0.5}})
	if err == nil {
		t.Fatal("expected SealLossProb to be rejected")
	}
}

func TestOracleSemantics(t *testing.T) {
	k := EdgeKey{Src: 1, Typ: 2, Dst: 3}

	t.Run("acked write must survive", func(t *testing.T) {
		o := NewOracle()
		o.CommitPut(k, "a")
		if err := o.Check(k, "a", true); err != nil {
			t.Fatal(err)
		}
		if err := o.Check(k, "", false); err == nil {
			t.Fatal("lost acked write not detected")
		}
		if err := o.Check(k, "b", true); err == nil {
			t.Fatal("wrong value not detected")
		}
	})

	t.Run("failed put may land or not", func(t *testing.T) {
		o := NewOracle()
		o.CommitPut(k, "a")
		o.FailPut(k, "b")
		for _, c := range []struct {
			got   string
			found bool
			ok    bool
		}{
			{"a", true, true},  // failed op never landed
			{"b", true, true},  // failed op landed via snapshot
			{"", false, false}, // acked value cannot vanish
			{"c", true, false}, // value from nowhere
		} {
			err := o.Check(k, c.got, c.found)
			if (err == nil) != c.ok {
				t.Errorf("Check(%q, %v) = %v, want ok=%v", c.got, c.found, err, c.ok)
			}
		}
	})

	t.Run("failed delete allows absence", func(t *testing.T) {
		o := NewOracle()
		o.CommitPut(k, "a")
		o.FailDelete(k)
		if err := o.Check(k, "", false); err != nil {
			t.Fatal(err)
		}
		if err := o.Check(k, "a", true); err != nil {
			t.Fatal(err)
		}
	})

	t.Run("ack after failure restores certainty", func(t *testing.T) {
		o := NewOracle()
		o.FailPut(k, "b")
		o.CommitPut(k, "c")
		if err := o.Check(k, "b", true); err == nil {
			t.Fatal("stale failed candidate accepted after later ack")
		}
		if err := o.Check(k, "c", true); err != nil {
			t.Fatal(err)
		}
	})

	t.Run("phantom on untouched key", func(t *testing.T) {
		o := NewOracle()
		o.FailPut(k, "b")
		o.CommitDelete(k)
		if err := o.Check(k, "b", true); err == nil {
			t.Fatal("acked delete must clear failed candidates")
		}
	})
}
