package graph

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"testing"
)

// TestPropDecoderMatchesDecodeProps checks the reusable scan decoder
// against the allocating one on a spread of shapes, including every
// corruption DecodeProps rejects.
func TestPropDecoderMatchesDecodeProps(t *testing.T) {
	cases := []Properties{
		nil,
		{{Name: "a", Value: []byte("x")}},
		{{Name: "a", Value: nil}, {Name: "bb", Value: []byte("yy")}},
		{{Name: "name", Value: bytes.Repeat([]byte("v"), 300)}},
		{{Name: "", Value: []byte("empty-name")}},
	}
	var dec PropDecoder
	for i, ps := range cases {
		buf := EncodeProps(ps)
		want, err := DecodeProps(buf)
		if err != nil {
			t.Fatalf("case %d: DecodeProps: %v", i, err)
		}
		got, err := dec.Decode(buf)
		if err != nil {
			t.Fatalf("case %d: PropDecoder: %v", i, err)
		}
		if len(got) != len(want) {
			t.Fatalf("case %d: %d props, want %d", i, len(got), len(want))
		}
		for j := range want {
			if got[j].Name != want[j].Name || !bytes.Equal(got[j].Value, want[j].Value) {
				t.Fatalf("case %d prop %d: got %q=%q want %q=%q",
					i, j, got[j].Name, got[j].Value, want[j].Name, want[j].Value)
			}
		}
	}

	corrupt := [][]byte{
		nil,
		{1},
		{1, 0, 5},                  // count 1, truncated name
		{1, 0, 1, 'a'},             // name present, no value length
		{1, 0, 1, 'a', 9, 0, 0, 0}, // value length overruns
		append(EncodeProps(Properties{{Name: "a", Value: []byte("b")}}), 0xaa, 0xbb), // trailing bytes
		{0, 0, 0xaa}, // no properties, then garbage
	}
	for i, buf := range corrupt {
		if _, err := dec.Decode(buf); err == nil {
			t.Fatalf("corrupt case %d decoded", i)
		}
		if _, err := DecodeProps(buf); err == nil {
			t.Fatalf("corrupt case %d decoded by DecodeProps", i)
		}
	}
}

// TestPropDecoderReuse proves the documented contract: a Decode call
// invalidates the previous result (same backing arrays), and names are
// interned to a single string across records.
func TestPropDecoderReuse(t *testing.T) {
	var dec PropDecoder
	a := EncodeProps(Properties{{Name: "p", Value: []byte("first")}})
	b := EncodeProps(Properties{{Name: "p", Value: []byte("secnd")}})

	got1, err := dec.Decode(a)
	if err != nil {
		t.Fatal(err)
	}
	val1 := got1[0].Value
	got2, err := dec.Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	if string(got2[0].Value) != "secnd" {
		t.Fatalf("second decode: %q", got2[0].Value)
	}
	// Same arena: the first result's value bytes were overwritten.
	if string(val1) == "first" {
		t.Fatal("decoder allocated a fresh value buffer; arena reuse broken")
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := dec.Decode(a); err != nil {
			panic(err)
		}
	})
	if allocs > 0 {
		t.Fatalf("steady-state Decode allocates %.1f times per call", allocs)
	}
}

// TestPropDecoderInternsByPosition pins what a scan pays for property names:
// a thousand records of one schema cost the decoder's three buffers (the
// Properties slice, the value arena, the one name string) and nothing per
// record or per decoder beyond them, and a schema change mid-scan — other
// names, more properties, fewer again — still decodes every record exactly.
func TestPropDecoderInternsByPosition(t *testing.T) {
	recs := make([][]byte, 1000)
	for i := range recs {
		recs[i] = EncodeProps(Properties{{Name: "ts", Value: []byte{byte(i), byte(i >> 8), 0, 0, 0, 0, 0, 0}}})
	}
	allocs := testing.AllocsPerRun(10, func() {
		var dec PropDecoder
		for _, rec := range recs {
			if ps, err := dec.Decode(rec); err != nil || len(ps) != 1 || ps[0].Name != "ts" {
				panic(fmt.Sprint(ps, err))
			}
		}
	})
	if allocs > 3 {
		t.Fatalf("decoding 1000 same-schema records allocated %.0f times, want <= 3", allocs)
	}

	schemas := []Properties{
		{{Name: "ts", Value: []byte("1")}},
		{{Name: "ts", Value: []byte("2")}},
		{{Name: "w", Value: []byte("3")}, {Name: "ts", Value: []byte("4")}, {Name: "note", Value: nil}},
		{{Name: "ts", Value: []byte("5")}, {Name: "w", Value: []byte("6")}},
		{{Name: "t", Value: []byte("7")}},
		nil,
		{{Name: "ts", Value: []byte("8")}},
	}
	var dec PropDecoder
	for i, want := range schemas {
		got, err := dec.Decode(EncodeProps(want))
		if err != nil || len(got) != len(want) {
			t.Fatalf("record %d: %d props, err %v; want %d", i, len(got), err, len(want))
		}
		for j := range want {
			if got[j].Name != want[j].Name || !bytes.Equal(got[j].Value, want[j].Value) {
				t.Fatalf("record %d prop %d: got %q=%q want %q=%q", i, j, got[j].Name, got[j].Value, want[j].Name, want[j].Value)
			}
		}
	}
}

// TestDecodeOwnedPropsAliases: DecodeOwnedProps decodes what DecodeProps
// does, its values are views of the buffer it was handed, and it allocates the
// property slice and the names alone.
func TestDecodeOwnedPropsAliases(t *testing.T) {
	buf := EncodeProps(Properties{{Name: "ts", Value: []byte("12345678")}, {Name: "w", Value: nil}})
	want, err := DecodeProps(buf)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeOwnedProps(buf)
	if err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("DecodeOwnedProps = %+v (%v), want %+v", got, err, want)
	}
	buf[bytes.Index(buf, []byte("1234"))] = 'X'
	if string(got[0].Value) != "X2345678" {
		t.Fatalf("value %q does not alias its buffer", got[0].Value)
	}
	one := EncodeProps(Properties{{Name: "ts", Value: []byte("12345678")}})
	if allocs := testing.AllocsPerRun(100, func() {
		if _, err := DecodeOwnedProps(one); err != nil {
			panic(err)
		}
	}); allocs > 2 {
		t.Fatalf("DecodeOwnedProps of one property allocates %.1f times, want <= 2 (the slice, the name)", allocs)
	}
}

// TestIdleDecodersAreBounded: a released decoder is the next one taken, and a
// decoder whose arena outgrew maxPooledArena, or whose slice outgrew
// maxPooledProps, is dropped rather than kept idle.
func TestIdleDecodersAreBounded(t *testing.T) {
	for len(idleDecoders) > 0 {
		<-idleDecoders
	}
	d := TakeDecoder()
	if _, err := d.Decode(EncodeProps(Properties{{Name: "ts", Value: []byte("1")}})); err != nil {
		t.Fatal(err)
	}
	d.Release()
	if got := TakeDecoder(); got != d {
		t.Fatal("the released decoder is not the next one taken")
	}
	for _, big := range []Properties{
		{{Name: "blob", Value: make([]byte, maxPooledArena+1)}},
		make(Properties, maxPooledProps+1),
	} {
		d := TakeDecoder()
		if _, err := d.Decode(EncodeProps(big)); err != nil {
			t.Fatal(err)
		}
		d.Release()
		if n := len(idleDecoders); n != 0 {
			t.Fatalf("a decoder of %d properties and a %d-byte arena was kept idle", cap(d.scratch), cap(d.arena))
		}
	}
}

func BenchmarkDecodeProps(b *testing.B) {
	buf := EncodeProps(Properties{{Name: "ts", Value: []byte{0, 0, 0, 0}}})
	b.Run("alloc", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := DecodeProps(buf); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("reuse", func(b *testing.B) {
		var dec PropDecoder
		for i := 0; i < b.N; i++ {
			if _, err := dec.Decode(buf); err != nil {
				b.Fatal(err)
			}
		}
	})
	_ = fmt.Sprint()
}

// FuzzDecodeProps fuzzes the one property-list decoder, the value of every
// vertex and edge record. Properties:
//
//   - nothing panics, whatever the bytes;
//   - every rejection wraps ErrCorrupt;
//   - an accepted list re-encodes byte-identically;
//   - PropDecoder.Decode on a decoder that decoded a list before,
//     DecodeProps and DecodeOwnedProps agree, on the error and on the list.
//
// The checked-in corpus under testdata/fuzz covers a valid list, an empty one,
// a 255-byte name, trailing bytes, a zero count followed by garbage, a
// truncated name and a value past the end.
func FuzzDecodeProps(f *testing.F) {
	f.Add(EncodeProps(Properties{{Name: "w", Value: []byte("x")}, {Name: "", Value: nil}}))
	f.Add(append(EncodeProps(nil), 0xaa))
	f.Fuzz(func(t *testing.T, data []byte) {
		var dec PropDecoder
		if _, err := dec.Decode(EncodeProps(Properties{{Name: "w", Value: []byte("primer")}})); err != nil {
			t.Fatal(err)
		}
		got, err := dec.Decode(data)
		want, werr := DecodeProps(data)
		if (err == nil) != (werr == nil) {
			t.Fatalf("PropDecoder.Decode: %v, DecodeProps: %v", err, werr)
		}
		owned, oerr := DecodeOwnedProps(bytes.Clone(data))
		if (oerr == nil) != (werr == nil) || (oerr == nil && !reflect.DeepEqual(owned, want)) {
			t.Fatalf("DecodeOwnedProps %+v (%v), DecodeProps %+v (%v)", owned, oerr, want, werr)
		}
		if err != nil {
			if !errors.Is(err, ErrCorrupt) || !errors.Is(werr, ErrCorrupt) {
				t.Fatalf("rejections %v, %v do not wrap ErrCorrupt", err, werr)
			}
			return
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("PropDecoder.Decode %+v, DecodeProps %+v", got, want)
		}
		if re := EncodeProps(got); !bytes.Equal(re, data) {
			t.Fatalf("accepted list is not canonical:\n in  %x\n out %x", data, re)
		}
	})
}
