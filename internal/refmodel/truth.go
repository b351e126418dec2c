package refmodel

import "fmt"

// maybe is what failed ops leave on a key. A write that was never
// acknowledged may be present (the engine applies memory before the WAL wait
// resolves, and a later checkpoint can make that durable) or absent.
type maybe struct {
	values map[string]bool // values a failed put may have left
	absent bool            // a failed delete may have removed the key
}

// Truth is what an op stream's outcomes say of each record: the last
// acknowledged value per key, plus the residue of failed ops, which the next
// acknowledged op of the key clears — its LSN orders it after every earlier
// attempt, in replay and in memory.
type Truth struct {
	acked map[Key]string
	maybe map[Key]*maybe
}

func NewTruth() *Truth { return &Truth{acked: map[Key]string{}, maybe: map[Key]*maybe{}} }

// AckPut records an acknowledged put of v.
func (t *Truth) AckPut(k Key, v string) { t.acked[k] = v; delete(t.maybe, k) }

// AckDelete records an acknowledged delete.
func (t *Truth) AckDelete(k Key) { delete(t.acked, k); delete(t.maybe, k) }

func (t *Truth) maybeOf(k Key) *maybe {
	ms := t.maybe[k]
	if ms == nil {
		ms = &maybe{values: map[string]bool{}}
		t.maybe[k] = ms
	}
	return ms
}

// FailPut records a put of v that failed: it may or may not have landed.
func (t *Truth) FailPut(k Key, v string) { t.maybeOf(k).values[v] = true }

// FailDelete records a delete that failed.
func (t *Truth) FailDelete(k Key) { t.maybeOf(k).absent = true }

// Check validates one observation of k: with no residue it must be the
// acknowledged state exactly; with residue, any state some subset of the
// failed ops explains.
func (t *Truth) Check(k Key, got string, found bool) error {
	want, acked := t.acked[k]
	ms := t.maybe[k]
	switch {
	case found && acked && got == want:
		return nil
	case found && ms != nil && ms.values[got]:
		return nil
	case !found && (!acked || (ms != nil && ms.absent)):
		return nil
	case !found:
		return fmt.Errorf("%v: acknowledged write %s lost", k, show(want))
	case acked:
		return fmt.Errorf("%v: read %s, acknowledged %s", k, show(got), show(want))
	}
	return fmt.Errorf("%v: phantom %s (never written, or deleted by an acknowledged op)", k, show(got))
}

// Agrees checks a whole graph against the truth.
func (t *Truth) Agrees(got Graph) error {
	for owner, m := range got {
		for key, v := range m {
			if err := t.Check(Key{owner, key}, v, true); err != nil {
				return err
			}
		}
	}
	for k := range t.acked {
		// k must be present: acknowledged, and no failed delete hangs over it.
		if _, ok := got.Get(k); !ok && (t.maybe[k] == nil || !t.maybe[k].absent) {
			return t.Check(k, "", false)
		}
	}
	return nil
}

// Acked is the acknowledged state, residue aside.
func (t *Truth) Acked() Graph {
	g := Graph{}
	for k, v := range t.acked {
		g.Put(k, v)
	}
	return g
}
