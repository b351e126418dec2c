// Package refmodel is the one reference model the tests of every package
// check reads against. Every consistency claim of the system has one form:
// a read at horizon h — an LSN, a pinned epoch, a replica's applied LSN —
// sees exactly the writes at or below h. KV holds that rule for keys and
// values, Truth for what an op stream's outcomes say, Graph for a graph
// state every traversal runs on unchanged; KHop is the naive BFS and Apply
// a batch as one write at a time. It imports nothing of the module but
// graph, so every package's in-package tests can use it.
package refmodel

import (
	"fmt"
	"sort"
)

// Latest is the horizon above every write.
const Latest = ^uint64(0)

// Version is one write of a key: a put of Value, or a delete, at LSN.
type Version struct {
	LSN     uint64
	Value   string
	Deleted bool
}

// KV is a versioned key-value model: each key's versions in write order,
// which is LSN order. Where writes carry no LSN (all 0) the last one is the
// key's state at every horizon.
type KV map[string][]Version

// Add records v as key's newest version.
func (m KV) Add(key string, v Version) { m[key] = append(m[key], v) }

// At is key's value at horizon h, and whether it is live there: its last
// version at or below h.
func (m KV) At(key string, h uint64) (string, bool) {
	vs := m[key]
	for i := len(vs) - 1; i >= 0; i-- {
		if vs[i].LSN <= h {
			return vs[i].Value, !vs[i].Deleted
		}
	}
	return "", false
}

// in reports whether k is in [from, to); to "" is unbounded.
func in(k, from, to string) bool { return k >= from && (to == "" || k < to) }

// Scan lists "key=value" for the keys of [from, to) live at h, in key order,
// at most limit of them (limit <= 0: all). to "" is unbounded.
func (m KV) Scan(from, to string, limit int, h uint64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		if in(k, from, to) {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	var out []string
	for _, k := range keys {
		if v, ok := m.At(k, h); ok {
			out = append(out, k+"="+v)
			if len(out) == limit {
				break
			}
		}
	}
	return out
}

// Explain returns why got is not a scan of [from, to) at some horizon in
// [h0, h1], key by key: each key's delivered state must be the one some
// horizon of the window gives it. With h0 == h1 that is equality with the
// model at that horizon. A read that is not one instant owes its caller the
// writes finished before it began (h0) and may see any made before it ended
// (h1).
func (m KV) Explain(got map[string]string, from, to string, h0, h1 uint64) error {
	for k := range got {
		if _, known := m[k]; !known || !in(k, from, to) {
			return fmt.Errorf("delivered %s, which is not a key of [%s, %s)", k, from, to)
		}
	}
	for k, vs := range m {
		if !in(k, from, to) {
			continue
		}
		v, live := got[k]
		wv, wlive := m.At(k, h0)
		ok := live == wlive && v == wv
		for _, ver := range vs {
			if ver.LSN > h0 && ver.LSN <= h1 && live == !ver.Deleted && (ver.Deleted || v == ver.Value) {
				ok = true
			}
		}
		if !ok {
			return fmt.Errorf("%s = %q (live %v); at %d the model has %q (live %v), and no version in (%d, %d] matches: %+v", k, v, live, h0, wv, wlive, h0, h1, vs)
		}
	}
	return nil
}
