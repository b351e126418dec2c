package mvcc

import (
	"sync"
	"testing"
)

func TestAdvanceMonotonic(t *testing.T) {
	s := NewSource(0)
	s.Advance(10)
	s.Advance(5) // stale release must not move the clock backwards
	if got := s.Current(); got != 10 {
		t.Fatalf("Current = %d, want 10", got)
	}
	s.Advance(12)
	if got := s.Current(); got != 12 {
		t.Fatalf("Current = %d, want 12", got)
	}
}

func TestPinHoldsFloor(t *testing.T) {
	s := NewSource(0)
	s.Advance(4)
	p := s.Pin()
	if p.Epoch() != 4 {
		t.Fatalf("pinned epoch = %d, want 4", p.Epoch())
	}
	s.Advance(9)
	if got := s.Floor(); got != 4 {
		t.Fatalf("Floor = %d, want 4 while pin is live", got)
	}
	if got := s.PinnedCount(); got != 1 {
		t.Fatalf("PinnedCount = %d, want 1 while the pin is live", got)
	}
	if st := s.Stats(); st.Pinned != 1 || st.OldestPinned != 4 {
		t.Fatalf("Stats = %+v, want one pin, oldest at 4", st)
	}
	p.Close()
	p.Close() // idempotent
	if got := s.Floor(); got != 9 {
		t.Fatalf("Floor = %d, want 9 after unpin", got)
	}
	if got := s.PinnedCount(); got != 0 {
		t.Fatalf("PinnedCount = %d, want 0", got)
	}
	if st := s.Stats(); st.Pinned != 0 || st.OldestPinned != 9 {
		t.Fatalf("Stats = %+v, want no pin, oldest at current 9", st)
	}
}

func TestNilPinSeesEverything(t *testing.T) {
	var p *Pin
	if got := p.ReadHorizon(); got != HorizonAll {
		t.Fatalf("nil pin horizon = %d, want HorizonAll", got)
	}
	p.Close() // must not panic
}

func TestConcurrentPinUnpin(t *testing.T) {
	s := NewSource(0)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				s.Advance(Epoch(w*1000 + i))
				p := s.Pin()
				if p.Epoch() > s.Current() {
					t.Errorf("pin epoch %d above current %d", p.Epoch(), s.Current())
				}
				_ = s.Floor()
				p.Close()
			}
		}(w)
	}
	wg.Wait()
	if got := s.PinnedCount(); got != 0 {
		t.Fatalf("PinnedCount = %d, want 0 after all closes", got)
	}
	st := s.Stats()
	if st.Pinned != 0 || st.OldestPinned != st.Current {
		t.Fatalf("Stats = %+v, want no pins and floor at current", st)
	}
}
