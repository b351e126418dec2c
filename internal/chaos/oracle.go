// Package chaos is BG3's crash-recovery test harness: it drives randomized
// graph workloads against a store with a seeded fault plan (transient
// append failures, torn tail-of-extent writes, crash points), "crashes"
// the RW node at the injected points, reopens it from the retained WAL
// (a checkpoint rotation plus the log after it), and verifies the recovered graph against an
// in-memory oracle. The property it checks is the paper's durability
// contract: an acknowledged write is never lost, no matter where in the
// write pipeline the node died.
package chaos

import (
	"fmt"
	"sort"

	"bg3/internal/graph"
)

// EdgeKey identifies one edge in the oracle's model.
type EdgeKey struct {
	Src graph.VertexID
	Typ graph.EdgeType
	Dst graph.VertexID
}

func (k EdgeKey) String() string {
	return fmt.Sprintf("%d-[%d]->%d", k.Src, k.Typ, k.Dst)
}

// maybeState records the uncertainty a failed operation leaves behind. A
// write that was never acknowledged is allowed to be present after
// recovery (the engine applies memory state before the WAL wait resolves,
// and a later checkpoint can make that state durable) or absent (its WAL
// record never became durable and no checkpoint captured it).
type maybeState struct {
	values map[string]struct{} // values a failed put may have left behind
	absent bool                // a failed delete may have removed the key
}

// Oracle is the model the recovered graph is checked against: the last
// acknowledged value per edge (certain), plus the residue of failed
// operations (uncertain until the next acknowledged op overwrites them).
type Oracle struct {
	committed map[EdgeKey]string
	maybe     map[EdgeKey]*maybeState
}

// NewOracle returns an empty model.
func NewOracle() *Oracle {
	return &Oracle{
		committed: make(map[EdgeKey]string),
		maybe:     make(map[EdgeKey]*maybeState),
	}
}

// CommitPut records an acknowledged put: the key's state is again certain,
// because the acknowledged record's LSN orders it after every earlier
// failed attempt in both replay and memory.
func (o *Oracle) CommitPut(k EdgeKey, v string) {
	o.committed[k] = v
	delete(o.maybe, k)
}

// CommitDelete records an acknowledged delete.
func (o *Oracle) CommitDelete(k EdgeKey) {
	delete(o.committed, k)
	delete(o.maybe, k)
}

func (o *Oracle) maybeFor(k EdgeKey) *maybeState {
	ms := o.maybe[k]
	if ms == nil {
		ms = &maybeState{values: make(map[string]struct{})}
		o.maybe[k] = ms
	}
	return ms
}

// FailPut records an unacknowledged put: v joins the set of values the key
// may hold after recovery.
func (o *Oracle) FailPut(k EdgeKey, v string) {
	o.maybeFor(k).values[v] = struct{}{}
}

// FailDelete records an unacknowledged delete: the key may be absent after
// recovery even if an earlier acknowledged put exists.
func (o *Oracle) FailDelete(k EdgeKey) {
	o.maybeFor(k).absent = true
}

// Keys returns every key the oracle knows about, in deterministic order.
func (o *Oracle) Keys() []EdgeKey {
	keys := make([]EdgeKey, 0, len(o.committed)+len(o.maybe))
	seen := make(map[EdgeKey]struct{}, len(o.committed))
	for k := range o.committed {
		keys = append(keys, k)
		seen[k] = struct{}{}
	}
	for k := range o.maybe {
		if _, dup := seen[k]; !dup {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.Src != b.Src {
			return a.Src < b.Src
		}
		if a.Typ != b.Typ {
			return a.Typ < b.Typ
		}
		return a.Dst < b.Dst
	})
	return keys
}

// Certain reports how many keys have no failed-operation residue.
func (o *Oracle) Certain() int { return len(o.committed) - o.overlap() }

// Uncertain reports how many keys carry failed-operation residue.
func (o *Oracle) Uncertain() int { return len(o.maybe) }

func (o *Oracle) overlap() int {
	n := 0
	for k := range o.maybe {
		if _, ok := o.committed[k]; ok {
			n++
		}
	}
	return n
}

// Check validates one observed read against the model. got/found are the
// observed value and presence. The rule: with no failed-op residue the
// observation must match the acknowledged state exactly (this is the
// zero-data-loss property — an acked write must survive recovery); with
// residue, any state reachable by some subset of the failed ops is legal.
func (o *Oracle) Check(k EdgeKey, got string, found bool) error {
	cv, committed := o.committed[k]
	ms := o.maybe[k]
	if ms == nil {
		switch {
		case committed && !found:
			return fmt.Errorf("chaos: edge %v: acknowledged write lost (want %q, got absent)", k, cv)
		case committed && got != cv:
			return fmt.Errorf("chaos: edge %v: acknowledged value lost (want %q, got %q)", k, cv, got)
		case !committed && found:
			return fmt.Errorf("chaos: edge %v: phantom edge %q (never written or deleted by ack)", k, got)
		}
		return nil
	}
	if !found {
		if committed && !ms.absent {
			return fmt.Errorf("chaos: edge %v: acknowledged write lost (want %q or a failed-op value, got absent)", k, cv)
		}
		return nil // base state absent, or a failed delete explains it
	}
	if committed && got == cv {
		return nil
	}
	if _, ok := ms.values[got]; ok {
		return nil
	}
	return fmt.Errorf("chaos: edge %v: impossible value %q (committed %q/%v, %d failed candidates)",
		k, got, cv, committed, len(ms.values))
}

// mustBePresent reports whether the oracle requires the key to exist (an
// acknowledged value with no failed delete hanging over it).
func (o *Oracle) mustBePresent(k EdgeKey) bool {
	_, committed := o.committed[k]
	ms := o.maybe[k]
	return committed && (ms == nil || !ms.absent)
}

// graphReader is the read surface the oracle verifies — both *core.Engine
// (via RWNode) and *core.Replica satisfy it.
type graphReader interface {
	GetEdge(src graph.VertexID, typ graph.EdgeType, dst graph.VertexID) (graph.Edge, bool, error)
	Neighbors(src graph.VertexID, typ graph.EdgeType, limit int, fn func(graph.VertexID, graph.Properties) bool) error
}

// Verify checks every oracle key with a point read, then cross-checks the
// adjacency lists: a scan must surface exactly the keys the oracle allows
// to be present, with no phantoms and no missing acknowledged edges.
func (o *Oracle) Verify(r graphReader) error {
	type adj struct {
		src graph.VertexID
		typ graph.EdgeType
	}
	lists := make(map[adj]struct{})
	for _, k := range o.Keys() {
		lists[adj{k.Src, k.Typ}] = struct{}{}
		e, ok, err := r.GetEdge(k.Src, k.Typ, k.Dst)
		if err != nil {
			return fmt.Errorf("chaos: verify read %v: %w", k, err)
		}
		got := ""
		if ok {
			if v, has := e.Props.Get(propName); has {
				got = string(v)
			}
		}
		if err := o.Check(k, got, ok); err != nil {
			return err
		}
	}
	for l := range lists {
		seen := make(map[graph.VertexID]string)
		err := r.Neighbors(l.src, l.typ, 0, func(dst graph.VertexID, props graph.Properties) bool {
			v, _ := props.Get(propName)
			seen[dst] = string(v)
			return true
		})
		if err != nil {
			return fmt.Errorf("chaos: verify scan %d/%d: %w", l.src, l.typ, err)
		}
		for dst, got := range seen {
			if err := o.Check(EdgeKey{l.src, l.typ, dst}, got, true); err != nil {
				return fmt.Errorf("scan: %w", err)
			}
		}
		for _, k := range o.Keys() {
			if k.Src != l.src || k.Typ != l.typ || !o.mustBePresent(k) {
				continue
			}
			if _, ok := seen[k.Dst]; !ok {
				return fmt.Errorf("chaos: scan %d/%d: acknowledged edge %v missing", l.src, l.typ, k)
			}
		}
	}
	return nil
}
