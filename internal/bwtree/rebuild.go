package bwtree

import (
	"fmt"

	"bg3/internal/storage"
)

// Rebuild registers in applier mapping m the tree its leaves describe, in key
// order, as checkpoints name them (NameLeaves): leaf entries under their IDs,
// ranges, sibling links and durable locations — cold, nothing is read, live
// counts unknown — and fresh inner nodes built bottom-up over the directory.
// The tree keeps its ID, so the WAL records that follow stay routable.
func Rebuild(m *Mapping, store *storage.Store, id TreeID, leaves []MappingUpdate) (*Tree, error) {
	if len(leaves) == 0 {
		return nil, fmt.Errorf("bwtree: rebuild tree %d: empty leaf directory", id)
	}
	t := &Tree{id: id, store: store, m: m, cfg: Config{}.withDefaults()}

	// Leaf level, and the first level of children the inner nodes go over.
	type child struct {
		id PageID
		lo []byte
	}
	level := make([]child, len(leaves))
	for i, lf := range leaves {
		if lf.Page == 0 || lf.Page >= innerPageBase {
			return nil, fmt.Errorf("bwtree: rebuild tree %d: no leaf has page ID %d", id, lf.Page)
		}
		e := &pageEntry{
			id: lf.Page, tree: t, isLeaf: true, live: -1,
			baseLoc: lf.Base, deltaLocs: append([]storage.Loc(nil), lf.Deltas...),
		}
		if len(lf.Lo) > 0 {
			e.lo = append([]byte(nil), lf.Lo...)
		}
		if i+1 < len(leaves) {
			e.hi, e.next = append([]byte(nil), leaves[i+1].Lo...), leaves[i+1].Page
		}
		m.register(e)
		level[i] = child{id: e.id, lo: e.lo}
	}

	// Inner levels: group children into nodes of at most MaxInnerEntries,
	// promoting each group's first low key, until one root remains.
	for len(level) > 1 {
		var next []child
		for start := 0; start < len(level); start += t.cfg.MaxInnerEntries {
			group := level[start:min(start+t.cfg.MaxInnerEntries, len(level))]
			n := &innerNode{}
			for i, c := range group {
				n.children = append(n.children, c.id)
				if i > 0 {
					n.keys = append(n.keys, c.lo)
				}
			}
			inner := &pageEntry{id: m.allocInnerID(), tree: t, inner: n}
			m.register(inner)
			next = append(next, child{id: inner.id, lo: group[0].lo})
		}
		level = next
	}
	t.root = level[0].id
	return t, nil
}
