package graph

import (
	"bytes"
	"errors"
	"strings"
	"testing"
	"testing/quick"
)

func TestPropsRoundTrip(t *testing.T) {
	in := Properties{
		{Name: "ts", Value: []byte{1, 2, 3, 4}},
		{Name: "weight", Value: []byte("0.5")},
		{Name: "empty", Value: nil},
	}
	out, err := DecodeProps(EncodeProps(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 3 || out[0].Name != "ts" || !bytes.Equal(out[1].Value, []byte("0.5")) {
		t.Fatalf("round trip = %+v", out)
	}
}

func TestPropsEmpty(t *testing.T) {
	out, err := DecodeProps(EncodeProps(nil))
	if err != nil || out != nil {
		t.Fatalf("empty round trip = %+v, %v", out, err)
	}
}

func TestPropsCorrupt(t *testing.T) {
	for _, buf := range [][]byte{nil, {1}, {1, 0, 5}} {
		if _, err := DecodeProps(buf); err == nil {
			t.Fatalf("corrupt input %v decoded", buf)
		}
	}
}

func TestPropertyEncodeDecodeQuick(t *testing.T) {
	f := func(names []string, values [][]byte) bool {
		var ps Properties
		for i, n := range names {
			if len(n) > 255 {
				n = n[:255]
			}
			var v []byte
			if i < len(values) {
				v = values[i]
			}
			ps = append(ps, Property{Name: n, Value: v})
		}
		out, err := DecodeProps(EncodeProps(ps))
		if err != nil {
			return false
		}
		if len(out) != len(ps) {
			return false
		}
		for i := range ps {
			if out[i].Name != ps[i].Name || !bytes.Equal(out[i].Value, ps[i].Value) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestPropsGet(t *testing.T) {
	ps := Properties{{Name: "a", Value: []byte("1")}}
	if v, ok := ps.Get("a"); !ok || string(v) != "1" {
		t.Fatalf("get = %q %v", v, ok)
	}
	if _, ok := ps.Get("b"); ok {
		t.Fatal("found missing property")
	}
}

func TestEdgeKeyRoundTrip(t *testing.T) {
	f := func(typ uint16, dst uint64) bool {
		key := EdgeKey(EdgeType(typ), VertexID(dst))
		gt, gd, err := DecodeEdgeKey(key)
		return err == nil && gt == EdgeType(typ) && gd == VertexID(dst)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := DecodeEdgeKey([]byte{1, 2, 3}); err == nil {
		t.Fatal("short edge key decoded")
	}
}

func TestEdgeKeyOrdering(t *testing.T) {
	// Edges of one type sort together, ordered by destination.
	k1 := EdgeKey(1, 100)
	k2 := EdgeKey(1, 200)
	k3 := EdgeKey(2, 0)
	if !(bytes.Compare(k1, k2) < 0 && bytes.Compare(k2, k3) < 0) {
		t.Fatal("edge key ordering broken")
	}
	lo, hi := EdgeTypeBounds(1)
	if bytes.Compare(lo, k1) > 0 || bytes.Compare(k2, hi) >= 0 || bytes.Compare(k3, hi) < 0 {
		t.Fatal("type bounds do not bracket the type's edges")
	}
	if _, hi := EdgeTypeBounds(^EdgeType(0)); hi != nil {
		t.Fatal("max edge type upper bound should be nil")
	}
}

// CheckProps accepts exactly what EncodeProps's fields hold.
func TestCheckProps(t *testing.T) {
	for i, c := range []struct {
		ps Properties
		ok bool
	}{
		{nil, true},
		{Properties{{Name: strings.Repeat("n", 255)}}, true},
		{Properties{{Name: strings.Repeat("n", 256)}}, false},
		{make(Properties, 1<<16-1), true},
		{make(Properties, 1<<16), false},
	} {
		if err := CheckProps(c.ps); (err == nil) != c.ok || err != nil && !errors.Is(err, ErrPropsTooLarge) {
			t.Errorf("CheckProps of case %d = %v, want ok %v", i, err, c.ok)
		}
	}
}
