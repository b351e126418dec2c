package storage

import (
	"errors"
	"testing"
	"time"
)

func TestFaultTransientAppend(t *testing.T) {
	plan := NewFaultPlan(FaultConfig{Seed: 1, AppendFailProb: 1})
	s := Open(&Options{Faults: plan})
	if _, err := s.Append(StreamBase, 1, []byte("x")); !errors.Is(err, ErrTransient) {
		t.Fatalf("err = %v, want ErrTransient", err)
	}
	if !IsTransient(errTake(s.Append(StreamBase, 1, []byte("x")))) {
		t.Fatal("injected transient error not classified as transient")
	}
	plan.SetEnabled(false)
	loc, err := s.Append(StreamBase, 1, []byte("x"))
	if err != nil {
		t.Fatalf("disarmed plan still failing: %v", err)
	}
	if _, err := s.Read(loc); err != nil {
		t.Fatalf("read after disarm: %v", err)
	}
	if st := plan.Stats(); st.TransientAppends != 2 {
		t.Fatalf("TransientAppends = %d, want 2", st.TransientAppends)
	}
}

func errTake(_ Loc, err error) error { return err }

func TestFaultTornWritePersistsPrefix(t *testing.T) {
	plan := NewFaultPlan(FaultConfig{Seed: 7})
	s := Open(&Options{Faults: plan})
	payload := []byte("0123456789abcdef")
	plan.TearNext()
	if _, err := s.Append(StreamBase, 1, payload); !errors.Is(err, ErrTornWrite) {
		t.Fatalf("err = %v, want ErrTornWrite", err)
	}
	// The torn prefix is a real entry: scan must surface it, shorter than
	// the payload and never empty (the tear cut is in [1, n-1]).
	entries, _, err := s.Scan(StreamBase, Cursor{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("entries = %d, want the torn prefix", len(entries))
	}
	got := entries[0].Data
	if len(got) == 0 || len(got) >= len(payload) {
		t.Fatalf("torn prefix length %d, want in [1, %d]", len(got), len(payload)-1)
	}
	if string(got) != string(payload[:len(got)]) {
		t.Fatalf("torn prefix %q is not a prefix of the payload", got)
	}
}

func TestFaultCrashPoint(t *testing.T) {
	plan := NewFaultPlan(FaultConfig{Seed: 3})
	s := Open(&Options{Faults: plan})
	if _, err := s.Append(StreamWAL, 0, []byte("before")); err != nil {
		t.Fatal(err)
	}
	plan.ScheduleCrash(2)
	if _, err := s.Append(StreamWAL, 0, []byte("ok")); err != nil {
		t.Fatalf("append before the crash point: %v", err)
	}
	loc, _ := s.Append(StreamBase, 1, []byte("pre-crash durable"))
	_ = loc
	// A forced tear armed for the append the crash takes instead must not
	// outlive the crashed node (checked after ClearCrash below).
	plan.TearNext()
	if _, err := s.Append(StreamWAL, 0, []byte("crashing")); !errors.Is(err, ErrCrashed) {
		t.Fatalf("crash append err = %v, want ErrCrashed", err)
	}
	// Every subsequent append fails; reads keep working (shared storage
	// outlives the node).
	if _, err := s.Append(StreamBase, 1, []byte("later")); !errors.Is(err, ErrCrashed) {
		t.Fatalf("post-crash append err = %v, want ErrCrashed", err)
	}
	if _, _, err := s.Scan(StreamWAL, Cursor{}, 0); err != nil {
		t.Fatalf("post-crash scan: %v", err)
	}
	plan.ClearCrash()
	if _, err := s.Append(StreamBase, 1, []byte("recovered")); err != nil {
		t.Fatalf("append after ClearCrash: %v", err)
	}
}

func TestFaultCrashCountsAcrossStreams(t *testing.T) {
	plan := NewFaultPlan(FaultConfig{Seed: 3})
	s := Open(&Options{Faults: plan})
	plan.ScheduleCrash(3)
	_, _ = s.Append(StreamBase, 1, []byte("a"))
	_, _ = s.Append(StreamDelta, 1, []byte("b"))
	if _, err := s.Append(StreamWAL, 0, []byte("c")); !errors.Is(err, ErrCrashed) {
		t.Fatalf("third append err = %v, want ErrCrashed (appends counted across streams)", err)
	}
}

func TestFaultExtentLoss(t *testing.T) {
	plan := NewFaultPlan(FaultConfig{Seed: 5})
	s := Open(&Options{Faults: plan})
	loc, err := s.Append(StreamBase, 1, []byte("doomed"))
	if err != nil {
		t.Fatal(err)
	}
	plan.LoseExtent(StreamBase, loc.Extent)
	if _, err := s.Read(loc); !errors.Is(err, ErrExtentLost) {
		t.Fatalf("read err = %v, want ErrExtentLost", err)
	}
	if _, _, err := s.Scan(StreamBase, Cursor{}, 0); !errors.Is(err, ErrExtentLost) {
		t.Fatalf("scan err = %v, want ErrExtentLost", err)
	}
}

func TestFaultScanReturnsPrefixBeforeLostExtent(t *testing.T) {
	plan := NewFaultPlan(FaultConfig{Seed: 5})
	s := Open(&Options{ExtentSize: 8, Faults: plan}) // one entry per extent
	l1, _ := s.Append(StreamWAL, 0, []byte("aaaaa"))
	l2, _ := s.Append(StreamWAL, 0, []byte("bbbbb"))
	_, _ = s.Append(StreamWAL, 0, []byte("ccccc"))
	if l1.Extent == l2.Extent {
		t.Fatal("test premise broken: entries share an extent")
	}
	plan.LoseExtent(StreamWAL, l2.Extent)
	entries, cur, err := s.Scan(StreamWAL, Cursor{}, 0)
	if !errors.Is(err, ErrExtentLost) {
		t.Fatalf("scan err = %v, want ErrExtentLost", err)
	}
	if len(entries) != 1 || string(entries[0].Data) != "aaaaa" {
		t.Fatalf("scan before the hole = %v, want just the first entry", entries)
	}
	if cur.Extent != l2.Extent {
		t.Fatalf("cursor parked at extent %d, want the lost extent %d", cur.Extent, l2.Extent)
	}
}

func TestFaultDeterminism(t *testing.T) {
	run := func() FaultStats {
		plan := NewFaultPlan(FaultConfig{
			Seed:           99,
			AppendFailProb: 0.3,
			TornWriteProb:  0.2,
			ReadFailProb:   0.25,
		})
		s := Open(&Options{Faults: plan})
		var locs []Loc
		for i := 0; i < 200; i++ {
			if loc, err := s.Append(StreamBase, uint64(i), []byte("payload")); err == nil {
				locs = append(locs, loc)
			}
		}
		for _, loc := range locs {
			_, _ = s.Read(loc)
		}
		return plan.Stats()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("same seed, different faults:\n%+v\n%+v", a, b)
	}
	if a == (FaultStats{}) {
		t.Fatal("no faults injected at these probabilities")
	}
}

func TestFaultLatencySpike(t *testing.T) {
	plan := NewFaultPlan(FaultConfig{Seed: 2, SpikeProb: 1, SpikeLatency: 2 * time.Millisecond})
	s := Open(&Options{Faults: plan})
	start := time.Now()
	if _, err := s.Append(StreamBase, 1, []byte("slow")); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < 2*time.Millisecond {
		t.Fatalf("append took %v, want >= 2ms spike", d)
	}
	if st := plan.Stats(); st.LatencySpikes == 0 {
		t.Fatal("spike not counted")
	}
}

func TestFaultOnInjectHook(t *testing.T) {
	plan := NewFaultPlan(FaultConfig{Seed: 1, AppendFailProb: 1})
	var kinds []FaultKind
	plan.OnInject = func(k FaultKind) { kinds = append(kinds, k) }
	s := Open(&Options{Faults: plan})
	_, _ = s.Append(StreamBase, 1, []byte("x"))
	if len(kinds) != 1 || kinds[0] != FaultTransientAppend {
		t.Fatalf("OnInject saw %v, want [transient-append]", kinds)
	}
	if kinds[0].String() != "transient-append" {
		t.Fatalf("FaultKind string = %q", kinds[0])
	}
}

func TestRetryPolicy(t *testing.T) {
	t.Run("succeeds after transient failures", func(t *testing.T) {
		p := RetryPolicy{MaxAttempts: 4, BaseBackoff: time.Microsecond, Sleep: func(time.Duration) {}}
		var retries int
		p.OnRetry = func(int, error) { retries++ }
		calls := 0
		err := p.Do("op", func() error {
			calls++
			if calls < 3 {
				return ErrTransient
			}
			return nil
		})
		if err != nil || calls != 3 || retries != 2 {
			t.Fatalf("err=%v calls=%d retries=%d", err, calls, retries)
		}
	})
	t.Run("gives up after MaxAttempts", func(t *testing.T) {
		p := RetryPolicy{MaxAttempts: 3, BaseBackoff: time.Microsecond, Sleep: func(time.Duration) {}}
		calls := 0
		err := p.Do("op", func() error { calls++; return ErrTornWrite })
		if calls != 3 {
			t.Fatalf("calls = %d, want 3", calls)
		}
		if !errors.Is(err, ErrTornWrite) {
			t.Fatalf("exhausted error %v does not wrap the cause", err)
		}
	})
	t.Run("permanent errors do not retry", func(t *testing.T) {
		p := RetryPolicy{MaxAttempts: 5, BaseBackoff: time.Microsecond, Sleep: func(time.Duration) {}}
		calls := 0
		boom := errors.New("boom")
		err := p.Do("op", func() error { calls++; return boom })
		if calls != 1 || !errors.Is(err, boom) {
			t.Fatalf("calls=%d err=%v, want one attempt returning the cause", calls, err)
		}
	})
}
